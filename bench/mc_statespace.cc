/**
 * @file
 * Schedule-space census of the interleaving model checker.
 *
 * For every scenario in the standard, weak-store-order and
 * cross-cache coherence catalogs, explores the space of concurrent
 * CPU/DMA/pageout schedules
 * twice — once by brute enumeration and once with the DPOR reduction
 * (sleep sets + persistent-set pruning) — and prints executed schedules,
 * inequivalent Mazurkiewicz traces, distinct end states, machine
 * steps including re-execution, and wall time. The interesting
 * comparison is the reduction factor: DPOR must execute exactly one
 * schedule per inequivalent trace, so the census doubles as an
 * optimality report for the pruning (executions == traces on every
 * row of the DPOR column). Exits 1 if an invariant fails; takes no
 * arguments.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/policy_config.hh"
#include "mc/explorer.hh"
#include "mc/scenario.hh"

namespace
{

using vic::PolicyConfig;
namespace mc = vic::mc;

/** Complete schedules each exploration may execute. */
constexpr std::uint64_t kBudget = 200000;

struct CensusRow
{
    mc::ScenarioResult brute;
    mc::ScenarioResult dpor;
    double dporMs = 0;
};

mc::ScenarioResult
timedExplore(const mc::Scenario &s, const mc::ExploreOptions &opt,
             double &ms)
{
    const auto t0 = std::chrono::steady_clock::now();
    mc::ScenarioResult r = mc::explore(s, opt);
    const auto t1 = std::chrono::steady_clock::now();
    ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    const PolicyConfig policy = PolicyConfig::cmu();
    std::vector<mc::Scenario> catalog = mc::standardCatalog(policy);
    // The weak-order rows stress the drain-conflict edges: the DPOR
    // exactly-once and brute-coverage invariants must survive the
    // enlarged alphabet.
    for (mc::Scenario &s : mc::weakCatalog(policy))
        catalog.push_back(std::move(s));
    // The cross-cache coherence rows add CPU/CPU conflict edges
    // between distinct caches (MESI and deliberately non-coherent):
    // the same invariants must hold over those edges too.
    for (mc::Scenario &s : mc::coherenceCatalog(policy))
        catalog.push_back(std::move(s));

    mc::ExploreOptions bruteOpt;
    bruteOpt.sleepSets = false;
    bruteOpt.persistentSets = false;
    bruteOpt.budget = kBudget;
    mc::ExploreOptions dporOpt;
    dporOpt.budget = kBudget;

    std::printf("schedule-space census, policy %s "
                "(budget %llu per cell)\n\n",
                policy.name.c_str(),
                static_cast<unsigned long long>(kBudget));
    std::printf("%-24s %-4s %5s | %9s %9s | %9s %9s %7s | %8s %6s\n",
                "scenario", "ord", "depth", "schedules", "traces",
                "dpor-runs", "steps", "races", "reduction", "ms");

    std::vector<CensusRow> rows;
    for (const mc::Scenario &s : catalog) {
        CensusRow row;
        row.brute = mc::explore(s, bruteOpt);
        row.dpor = timedExplore(s, dporOpt, row.dporMs);
        const double reduction =
            row.dpor.executions
                ? double(row.brute.executions) /
                      double(row.dpor.executions)
                : 0.0;
        std::printf("%-24s %-4s %5llu | %8llu%s %9llu | %9llu %9llu "
                    "%4zu+%-2llu | %7.1fx %6.1f\n",
                    s.name.c_str(),
                    mc::memoryOrderName(s.memoryOrder),
                    static_cast<unsigned long long>(
                        row.dpor.maxDepth),
                    static_cast<unsigned long long>(
                        row.brute.executions),
                    row.brute.exhausted ? " " : "+",
                    static_cast<unsigned long long>(
                        row.brute.canonicalTraces),
                    static_cast<unsigned long long>(
                        row.dpor.executions),
                    static_cast<unsigned long long>(row.dpor.steps),
                    row.dpor.races.size() - row.dpor.benignRaces,
                    static_cast<unsigned long long>(
                        row.dpor.benignRaces),
                    reduction, row.dporMs);
        rows.push_back(std::move(row));
    }

    // The reduction's soundness + optimality invariants, checked
    // across the whole catalog so the census can gate CI.
    bool ok = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CensusRow &row = rows[i];
        if (!row.dpor.exhausted) {
            std::printf("ERROR: %s: DPOR budget exhausted\n",
                        catalog[i].name.c_str());
            ok = false;
        }
        if (row.dpor.executions != row.dpor.canonicalTraces) {
            std::printf("ERROR: %s: DPOR executed %llu schedules for "
                        "%llu traces (not exactly-once)\n",
                        catalog[i].name.c_str(),
                        static_cast<unsigned long long>(
                            row.dpor.executions),
                        static_cast<unsigned long long>(
                            row.dpor.canonicalTraces));
            ok = false;
        }
        if (row.brute.exhausted &&
            row.brute.canonicalTraces != row.dpor.canonicalTraces) {
            std::printf("ERROR: %s: reduction missed traces "
                        "(%llu brute vs %llu dpor)\n",
                        catalog[i].name.c_str(),
                        static_cast<unsigned long long>(
                            row.brute.canonicalTraces),
                        static_cast<unsigned long long>(
                            row.dpor.canonicalTraces));
            ok = false;
        }
    }
    std::printf("\n%s\n", ok ? "census invariants hold"
                             : "census invariants VIOLATED");
    return ok ? 0 : 1;
}
