/**
 * @file
 * Table 1 — "Performance of several common benchmarks using two
 * approaches to consistency management": the "old" kernel (config A:
 * eager, alignment-oblivious) versus the "new" kernel (config F: the
 * paper's lazy, alignment-aware management) on afs-bench, latex-paper
 * and kernel-build.
 *
 * Expected shape (paper): elapsed-time gains of 10%, 5% and 8.5%, and
 * large reductions in page flush and purge counts.
 */

#include "bench/suites.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

std::vector<RunSpec>
table1Specs()
{
    std::vector<RunSpec> specs;
    for (std::size_t i = 0; i < numPaperWorkloads; ++i) {
        specs.push_back(
            paperSpec("table1", i, PolicyConfig::configA()));
        specs.push_back(
            paperSpec("table1", i, PolicyConfig::configF()));
    }
    return specs;
}

bool
table1Report(const std::vector<RunOutcome> &outcomes)
{
    Table t({"Program", "Elapsed old (s)", "Elapsed new (s)", "% gain",
             "Flushes old", "Flushes new", "Purges old", "Purges new"});
    bool shapes_ok = true;

    for (std::size_t i = 0; i < numPaperWorkloads; ++i) {
        const RunResult &r_old = outcomes[2 * i].result;
        const RunResult &r_new = outcomes[2 * i + 1].result;

        t.row();
        t.cell(r_old.workload);
        t.cell(r_old.seconds, 4);
        t.cell(r_new.seconds, 4);
        t.cell(100.0 * (1.0 - r_new.seconds / r_old.seconds), 1);
        t.cell(r_old.dPageFlushes());
        t.cell(r_new.dPageFlushes());
        t.cell(r_old.dPagePurges() + r_old.iPagePurges());
        t.cell(r_new.dPagePurges() + r_new.iPagePurges());

        const double gain = 1.0 - r_new.seconds / r_old.seconds;
        shapes_ok &= gain > 0.02 && gain < 0.20;
        shapes_ok &= r_new.dPageFlushes() < r_old.dPageFlushes();
        shapes_ok &= r_new.dPagePurges() + r_new.iPagePurges() <=
                     r_old.dPagePurges() + r_old.iPagePurges();
    }

    t.print();
    std::printf("\npaper reported gains: afs-bench 10%%, latex-paper "
                "5%%, kernel-build 8.5%%\n");
    std::printf("(absolute seconds are scaled-down workloads; the "
                "gains and count reductions are the result)\n");
    return shapeCheck(shapes_ok,
                      "new faster by 2-20% on every benchmark, "
                      "counts reduced");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "table1";
    s.title = "Table 1: old vs new consistency management";
    s.paperRef = "Wheeler & Bershad 1992, Table 1 (Section 2.5)";
    s.order = 10;
    s.specs = table1Specs;
    s.report = table1Report;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
