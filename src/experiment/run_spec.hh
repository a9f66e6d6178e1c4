/**
 * @file
 * Declarative description of one experiment run, and its collected
 * outcome.
 *
 * The paper's evaluation is a sweep of (workload x policy x machine
 * configuration) executions. A RunSpec captures everything one such
 * execution depends on — and nothing else: the workload factory
 * builds a FRESH workload instance for every execution, the machine
 * is constructed inside the run, and the random stream is a function
 * of (seed, replica) alone. That is what lets the ExperimentEngine
 * fan runs out across threads while guaranteeing each run is
 * bit-identical to its serial counterpart.
 */

#ifndef VIC_EXPERIMENT_RUN_SPEC_HH
#define VIC_EXPERIMENT_RUN_SPEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/policy_config.hh"
#include "machine/machine_params.hh"
#include "os/os_params.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace vic
{

struct RunSpec
{
    /** Unique id within a batch, conventionally
     *  "<suite>/<workload>/<policy>[/rN]". Filters match against it. */
    std::string id;

    /** Owning suite (used to group artifact entries and reports). */
    std::string suite;

    /** Builds a fresh workload instance. Called once per execution,
     *  inside the run, so no state leaks between runs or threads. */
    std::function<std::unique_ptr<Workload>()> make;

    PolicyConfig policy;
    MachineParams machine = MachineParams::hp720();
    OsParams os = {};

    /** Base seed of the workload's random stream. Suites default it
     *  to the workload's calibrated seed so identical streams run
     *  under every policy (the paper's methodology). */
    std::uint64_t seed = 0;

    /** Replica index: replica 0 uses @c seed verbatim; replica N > 0
     *  uses a SplitMix64 expansion of (seed, N), giving unrelated but
     *  reproducible streams for repeated runs of one workload. */
    std::uint32_t replica = 0;

    /** When nonzero, record this many most-recent consistency events
     *  into the result's trace tail. */
    std::size_t traceEvents = 0;
};

/** Everything collected from executing one RunSpec. */
struct RunOutcome
{
    // Identification (copied from the spec; the artifact and reports
    // must not need the factory-bearing spec again).
    std::string id;
    std::string suite;
    std::string workload;
    std::string policy;
    std::uint64_t seed = 0;
    std::uint32_t replica = 0;
    /** The SplitMix64-expanded seed the workload actually ran with. */
    std::uint64_t effectiveSeed = 0;

    /** False when the run threw; @c error carries the message and
     *  @c result is meaningless. A failed run never tears down the
     *  batch — the engine reports it per-run. */
    bool ok = false;
    std::string error;

    RunResult result;

    /** Host wall-clock seconds for this run. Excluded from artifact
     *  determinism comparisons. */
    double wallSeconds = 0;
};

} // namespace vic

#endif // VIC_EXPERIMENT_RUN_SPEC_HH
