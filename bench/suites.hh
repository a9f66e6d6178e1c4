/**
 * @file
 * Bench suite registry: the paper's tables and ablations as
 * spec-builders plus report formatters over ExperimentEngine results.
 *
 * Each suite declares the (workload x policy x machine) runs it needs
 * as RunSpecs; the engine executes them — serially or fanned out
 * across cores — and hands the outcomes back in spec order. The
 * suite's report() prints the paper-style tables and applies its
 * shape checks to the collected RunResults. A suite may additionally
 * carry a validate() step for machinery the engine cannot batch (the
 * Table 2 concrete transition scenarios, the Table 3 live state
 * census), which runs serially after the sweep.
 *
 * tools/vic_bench is the one driver over the registry: it sweeps
 * every suite, or those selected with --filter <suite>.
 */

#ifndef VIC_BENCH_SUITES_HH
#define VIC_BENCH_SUITES_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "experiment/experiment_engine.hh"
#include "experiment/json_artifact.hh"
#include "experiment/run_spec.hh"

namespace vic::bench
{

struct Suite
{
    std::string name;     ///< registry key, e.g. "table1"
    std::string title;    ///< banner headline
    std::string paperRef; ///< "Wheeler & Bershad 1992, ..."
    int order = 0;        ///< stable sweep position

    /** The suite's runs, in the order report() expects them. */
    std::function<std::vector<RunSpec>()> specs;

    /** Print tables and apply shape checks over the outcomes (spec
     *  order). Returns the gating verdict. */
    std::function<bool(const std::vector<RunOutcome> &)> report;

    /** Optional serial validation outside the engine (may be null). */
    std::function<bool()> validate;
};

/** Register a suite; called from each suite TU's static initialiser. */
void registerSuite(Suite suite);

/** Every registered suite, sorted by Suite::order. */
std::vector<const Suite *> allSuites();

/** Lookup by name; nullptr when unknown. */
const Suite *findSuite(const std::string &name);

// ----------------------------------------------------------------------
// Shared helpers for suite implementations
// ----------------------------------------------------------------------

inline constexpr std::size_t numPaperWorkloads = 3;

/** Fresh paper workload (0 afs-bench, 1 latex-paper, 2 kernel-build)
 *  at its calibrated scale. */
std::unique_ptr<Workload> makePaperWorkload(std::size_t idx);

/** The calibrated base seed of paper workload @p idx. */
std::uint64_t paperWorkloadSeed(std::size_t idx);

/** Short policy tag for run ids: "F (+will overwrite)" -> "F". */
std::string policyTag(const PolicyConfig &policy);

/** RunSpec for paper workload @p idx under @p policy on @p mp; a
 *  non-empty @p variant is appended to the run id. */
RunSpec paperSpec(const std::string &suite, std::size_t idx,
                  const PolicyConfig &policy,
                  const MachineParams &mp = MachineParams::hp720(),
                  const std::string &variant = "");

/** Gate: every outcome ran to completion with zero oracle
 *  violations; failures are printed to stderr. */
bool outcomesClean(const std::vector<RunOutcome> &outcomes);

/** Print a SHAPE CHECK verdict and return it: a failed check fails
 *  the sweep. */
bool shapeCheck(bool ok, const char *what);

/** Banner for a suite, matching the historical bench layout. */
void suiteBanner(const Suite &suite);

} // namespace vic::bench

#endif // VIC_BENCH_SUITES_HH
