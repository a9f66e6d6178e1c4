/**
 * @file
 * Table 5 — "Functional differences between several operating systems
 * implemented for machines with virtually indexed caches": the CMU
 * system (this paper) against Utah, Tut, Apollo and Sun. Prints the
 * functional feature matrix and then MEASURES all five policies on
 * the three benchmark workloads, showing the CMU system performing
 * the least cache management.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

std::vector<RunSpec>
table5Specs()
{
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        for (const auto &cfg : PolicyConfig::table5Systems())
            specs.push_back(paperSpec("table5", w, cfg));
    }
    return specs;
}

void
printFunctionalMatrix()
{
    // Functional matrix (from the paper's narrative; our policy
    // parametrisation of each system).
    Table f({"System", "Unaligned aliases", "Unmap policy",
             "Reuse that avoids ops", "Aligns pages",
             "Aligned prepare", "need_data / will_overwrite"});
    f.row();
    f.cell(std::string("CMU"));
    f.cell(std::string("yes (lazy state)"));
    f.cell(std::string("lazy"));
    f.cell(std::string("aligned (cache page)"));
    f.cell(std::string("yes"));
    f.cell(std::string("yes"));
    f.cell(std::string("yes / yes"));
    f.row();
    f.cell(std::string("Utah"));
    f.cell(std::string("yes (break on write)"));
    f.cell(std::string("eager clean"));
    f.cell(std::string("none"));
    f.cell(std::string("no"));
    f.cell(std::string("no"));
    f.cell(std::string("no / no"));
    f.row();
    f.cell(std::string("Tut"));
    f.cell(std::string("yes (break on write)"));
    f.cell(std::string("lazy (per VA)"));
    f.cell(std::string("equal address only"));
    f.cell(std::string("text only"));
    f.cell(std::string("yes"));
    f.cell(std::string("no / no"));
    f.row();
    f.cell(std::string("Apollo"));
    f.cell(std::string("yes (break on write)"));
    f.cell(std::string("eager clean"));
    f.cell(std::string("none"));
    f.cell(std::string("no"));
    f.cell(std::string("no"));
    f.cell(std::string("no / no"));
    f.row();
    f.cell(std::string("Sun"));
    f.cell(std::string("constrained (uncached)"));
    f.cell(std::string("eager clean"));
    f.cell(std::string("none"));
    f.cell(std::string("no"));
    f.cell(std::string("no"));
    f.cell(std::string("no / no"));
    f.print();
    std::printf("\n");
}

bool
table5Report(const std::vector<RunOutcome> &outcomes)
{
    printFunctionalMatrix();

    const std::size_t num_systems =
        outcomes.size() / numPaperWorkloads;

    // Measured comparison on the three paper workloads.
    bool shapes_ok = true;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        Table t({"System", "Elapsed (s)", "D flushes", "D purges",
                 "I purges", "Cons faults", "Total cache ops"});
        std::vector<RunResult> rs;
        for (std::size_t i = 0; i < num_systems; ++i) {
            const RunResult &r =
                outcomes[w * num_systems + i].result;
            t.row();
            t.cell(r.policy);
            t.cell(r.seconds, 4);
            t.cell(r.dPageFlushes());
            t.cell(r.dPagePurges());
            t.cell(r.iPagePurges());
            t.cell(r.consistencyFaults());
            t.cell(r.dPageFlushes() + r.dPagePurges() +
                   r.iPagePurges());
            rs.push_back(r);
        }
        std::printf("--- %s ---\n", rs.front().workload.c_str());
        t.print();
        std::printf("\n");

        const auto ops = [](const RunResult &r) {
            return r.dPageFlushes() + r.dPagePurges() + r.iPagePurges();
        };
        for (std::size_t i = 1; i < rs.size(); ++i)
            shapes_ok &= ops(rs[0]) <= ops(rs[i]);
    }

    std::printf("expected shape: the CMU row performs the fewest "
                "cache operations on every workload\n");
    return shapeCheck(shapes_ok,
                      "CMU performs the fewest cache operations on "
                      "every workload");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "table5";
    s.title = "Table 5: related-work systems comparison";
    s.paperRef = "Wheeler & Bershad 1992, Table 5 (Section 6)";
    s.order = 50;
    s.specs = table5Specs;
    s.report = table5Report;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
