/**
 * @file
 * Ablation A2 — multiple free page lists (Section 5.1): "most (about
 * 80%) [of configuration F's purges] are due to the creation of new
 * mappings when a virtual address is assigned to a random physical
 * page from the kernel's free page list. Some of these purges could
 * be eliminated by reducing the associativity of virtual to physical
 * mappings through the use of multiple free page lists."
 *
 * Config F with the single FIFO free list versus per-colour free
 * lists, on all three workloads.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

PolicyConfig
singleList()
{
    PolicyConfig single = PolicyConfig::configF();
    single.name = "F, single free list";
    return single;
}

PolicyConfig
colouredLists()
{
    PolicyConfig coloured = PolicyConfig::configF();
    coloured.freeListOrg = FreePageList::Organisation::PerColour;
    coloured.name = "F, per-colour lists";
    return coloured;
}

std::vector<RunSpec>
pageColorSpecs()
{
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        specs.push_back(paperSpec("page-color", w, singleList(),
                                  MachineParams::hp720(), "single"));
        specs.push_back(paperSpec("page-color", w, colouredLists(),
                                  MachineParams::hp720(),
                                  "coloured"));
    }
    return specs;
}

bool
pageColorReport(const std::vector<RunOutcome> &outcomes)
{
    Table t({"Program", "Policy", "Elapsed (s)", "D purges",
             "I purges", "D flushes", "Colour hits", "Colour misses"});
    std::uint64_t purges_single = 0, purges_coloured = 0;

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunResult &r = outcomes[i].result;
        t.row();
        t.cell(r.workload);
        t.cell(r.policy);
        t.cell(r.seconds, 4);
        t.cell(r.dPagePurges());
        t.cell(r.iPagePurges());
        t.cell(r.dPageFlushes());
        t.cell(r.stat("os.freelist.colour_hits"));
        t.cell(r.stat("os.freelist.colour_misses"));

        // Spec order alternates single, coloured per workload.
        (i % 2 ? purges_coloured : purges_single) +=
            r.dPagePurges() + r.iPagePurges();
    }
    t.print();
    const bool shapes_ok = purges_coloured <= purges_single;

    std::printf("\nexpected shape: per-colour lists raise the colour "
                "hit rate and cut new-mapping purges\n");
    std::printf("total purges: %llu (single) -> %llu (per-colour)\n",
                (unsigned long long)purges_single,
                (unsigned long long)purges_coloured);
    return shapeCheck(shapes_ok,
                      "per-colour free lists do not increase total "
                      "purges");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "page-color";
    s.title = "Ablation: per-colour free page lists (page colouring)";
    s.paperRef = "Wheeler & Bershad 1992, Section 5.1 (suggested "
                 "optimisation)";
    s.order = 80;
    s.specs = pageColorSpecs;
    s.report = pageColorReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
