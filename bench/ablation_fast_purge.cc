/**
 * @file
 * Ablation A1 — "Virtually indexed caches should support a fast page
 * purge operation" (Section 5.1): the paper estimates that a
 * single-cycle cache page purge would save 2.26 s (0.33%) of the
 * 685.8 s three-benchmark total. We rerun configuration F with the
 * modelled purge costs replaced by a one-cycle page purge and report
 * the same accounting.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

MachineParams
fastPurgeParams()
{
    // A one-cycle PAGE purge: per-line purge cost so small that the
    // whole page costs ~1 cycle. Model by zeroing the per-line purge
    // costs (the flush costs stay: flushes move data and cannot be
    // free).
    MachineParams fast = MachineParams::hp720();
    fast.dcacheCosts.opLineAbsent = 0;
    fast.dcacheCosts.opLinePresent = 1;
    fast.icacheCosts.opLineAbsent = 0;
    fast.icacheCosts.opLinePresent = 1;
    fast.icacheCosts.uniformOpCost = false;
    return fast;
}

std::vector<RunSpec>
fastPurgeSpecs()
{
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        specs.push_back(paperSpec("fast-purge", w,
                                  PolicyConfig::configF(),
                                  MachineParams::hp720(), "base"));
        specs.push_back(paperSpec("fast-purge", w,
                                  PolicyConfig::configF(),
                                  fastPurgeParams(), "fast"));
    }
    return specs;
}

bool
fastPurgeReport(const std::vector<RunOutcome> &outcomes)
{
    Table t({"Program", "Elapsed base (s)", "Elapsed fast-purge (s)",
             "Saved (s)", "Saved (%)"});

    double total_base = 0, total_fast = 0;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        const RunResult &rb = outcomes[2 * w].result;
        const RunResult &rf = outcomes[2 * w + 1].result;
        total_base += rb.seconds;
        total_fast += rf.seconds;
        t.row();
        t.cell(rb.workload);
        t.cell(rb.seconds, 4);
        t.cell(rf.seconds, 4);
        t.cell(rb.seconds - rf.seconds, 4);
        t.cell(100.0 * (rb.seconds - rf.seconds) / rb.seconds, 2);
    }
    t.print();

    std::printf("\ntotal saving: %.4f s of %.4f s = %.2f%%\n",
                total_base - total_fast, total_base,
                100.0 * (total_base - total_fast) / total_base);
    std::printf("paper's estimate: 2.26 s of 685.8 s = 0.33%% — a "
                "small but real architectural win\n");
    const double pct =
        100.0 * (total_base - total_fast) / total_base;
    return shapeCheck(pct > 0.0 && pct < 5.0,
                      "small but nonzero saving from a one-cycle "
                      "page purge");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "fast-purge";
    s.title = "Ablation: single-cycle page purge";
    s.paperRef = "Wheeler & Bershad 1992, Section 5.1 (architectural "
                 "recommendation)";
    s.order = 70;
    s.specs = fastPurgeSpecs;
    s.report = fastPurgeReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
