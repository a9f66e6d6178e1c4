/**
 * @file
 * Fleet throughput: replicated runs of the paper workloads (the
 * paper's Section 6 method of repeating each workload over several
 * runs).
 *
 * Each replica is an ordinary RunSpec, id fleet/<workload>/F/r<k>,
 * with RunSpec::replica = k, so replica k > 0 runs a SplitMix64
 * expansion of the workload's calibrated seed. The engine spreads the
 * replicas across its --jobs pool like any other run; the report sums
 * each workload's replicas in replica order.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

constexpr std::uint32_t kReplicas = 8;

/** Workload-major, replica-minor: each workload's replicas are
 *  consecutive, as fleetReport() expects. */
std::vector<RunSpec>
fleetSpecs()
{
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        for (std::uint32_t k = 0; k < kReplicas; ++k) {
            RunSpec spec = paperSpec("fleet", w, PolicyConfig::configF(),
                                     MachineParams::hp720(),
                                     format("r%u", k));
            spec.replica = k;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

bool
fleetReport(const std::vector<RunOutcome> &outcomes)
{
    Table t({"Workload", "Replicas", "Summed cycles", "Sim seconds",
             "Oracle checked"});
    bool every_replica_works = outcomes.size() % kReplicas == 0;
    for (std::size_t first = 0; first + kReplicas <= outcomes.size();
         first += kReplicas) {
        std::uint64_t cycles = 0, checked = 0;
        double seconds = 0;
        for (std::size_t k = first; k < first + kReplicas; ++k) {
            const RunResult &r = outcomes[k].result;
            cycles += std::uint64_t(r.cycles);
            seconds += r.seconds;
            checked += r.oracleChecked;
            every_replica_works &= std::uint64_t(r.cycles) > 0 &&
                                   r.oracleChecked > 0;
        }
        t.row();
        t.cell(outcomes[first].result.workload);
        t.cell(std::uint64_t(kReplicas));
        t.cell(cycles);
        t.cell(seconds, 4);
        t.cell(checked);
    }
    t.print();
    std::printf("\n");

    bool ok = outcomesClean(outcomes);
    ok &= shapeCheck(every_replica_works,
                     "every fleet replica does nonzero simulated and "
                     "oracle-checked work");
    return ok;
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "fleet";
    s.title = "Fleet throughput: replicated paper workloads";
    s.paperRef = "Wheeler & Bershad 1992, Section 6 methodology "
                 "(replicated runs)";
    s.order = 60;
    s.specs = fleetSpecs;
    s.report = fleetReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
