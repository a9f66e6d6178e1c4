/**
 * @file
 * Parallel experiment engine.
 *
 * Takes a declarative list of RunSpecs and executes them on a
 * fixed-size pool of worker threads. Isolation is by construction:
 * every run builds its own Machine, ConsistencyOracle, Kernel and
 * Workload inside the worker, and the only shared state is the
 * next-spec index (an atomic) and each run's private outcome slot.
 * Results are collected in SPEC ORDER regardless of completion
 * order, so a batch's outcome — and the JSON artifact derived from
 * it — is byte-identical between --jobs 1 and --jobs N (excluding
 * wall-clock fields).
 */

#ifndef VIC_EXPERIMENT_EXPERIMENT_ENGINE_HH
#define VIC_EXPERIMENT_EXPERIMENT_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/run_spec.hh"

namespace vic
{

class ExperimentEngine
{
  public:
    /**
     * Execute every spec on @p jobs worker threads and return outcomes
     * in spec order; fewer than 2 jobs (or a single spec) run the
     * batch serially on the calling thread. A spec whose execution
     * throws yields an outcome with ok == false and the exception
     * message; the rest of the batch is unaffected.
     */
    std::vector<RunOutcome> run(const std::vector<RunSpec> &specs,
                                unsigned jobs = 1) const;

    /** Execute one spec on the calling thread. A spec that throws —
     *  or has no workload factory — yields ok == false. */
    static RunOutcome runOne(const RunSpec &spec);

    /**
     * The seed a (base, replica) pair actually runs with: replica 0
     * is the base seed verbatim (preserving every workload's
     * calibrated stream), replica N > 0 is streamSeed(base, N) —
     * unrelated across replicas, identical across schedules.
     */
    static std::uint64_t effectiveSeed(std::uint64_t base,
                                       std::uint32_t replica);

    /**
     * vic_bench's filter semantics: @p filter is a comma-separated
     * list of substrings; an id matches when the filter is empty or
     * at least one substring occurs in it.
     */
    static bool matchesFilter(const std::string &id,
                              const std::string &filter);
};

} // namespace vic

#endif // VIC_EXPERIMENT_EXPERIMENT_ENGINE_HH
