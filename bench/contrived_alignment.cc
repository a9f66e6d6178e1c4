/**
 * @file
 * Experiment C1 — the Section 2.5 contrived benchmark: "A single
 * thread repeatedly wrote one physical address through two virtual
 * addresses. When the virtual addresses were aligned, a loop of
 * 1,000,000 writes completed in a fraction of a second. When
 * unaligned, the loop took over 2 minutes."
 *
 * Expected shape: two or more orders of magnitude between aligned and
 * unaligned (the paper's ratio is roughly 300x).
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"
#include "workload/contrived_alias.hh"

namespace vic::bench
{
namespace
{

// The paper's 1,000,000 writes, scaled 1:25 (the ratio is preserved;
// multiply the times by 25 to compare absolutes).
constexpr std::uint32_t kWrites = 40000;

std::vector<RunSpec>
contrivedSpecs()
{
    std::vector<RunSpec> specs;
    for (const auto &cfg :
         {PolicyConfig::configF(), PolicyConfig::configA()}) {
        for (bool aligned : {true, false}) {
            RunSpec spec;
            spec.suite = "contrived";
            spec.id = std::string("contrived/") +
                      (aligned ? "aligned" : "unaligned") + "/" +
                      policyTag(cfg);
            spec.make = [aligned] {
                return std::make_unique<ContrivedAlias>(
                    ContrivedAlias::Params{aligned, kWrites, false});
            };
            spec.policy = cfg;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

bool
contrivedReport(const std::vector<RunOutcome> &outcomes)
{
    Table t({"Variant", "Policy", "Writes", "Elapsed (s)",
             "Consistency faults", "D flushes", "D purges"});

    // Spec order: F/aligned, F/unaligned, A/aligned, A/unaligned.
    double aligned_s = 0, unaligned_s = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunResult &r = outcomes[i].result;
        t.row();
        t.cell(r.workload);
        t.cell(r.policy);
        t.cell(std::uint64_t(kWrites));
        t.cell(r.seconds, 6);
        t.cell(r.consistencyFaults());
        t.cell(r.dPageFlushes());
        t.cell(r.dPagePurges());
        if (i == 0)
            aligned_s = r.seconds;
        else if (i == 1)
            unaligned_s = r.seconds;
    }
    t.print();

    std::printf("\nunaligned / aligned ratio (config F): %.0fx\n",
                unaligned_s / aligned_s);
    std::printf("paper: aligned = 'a fraction of a second', unaligned "
                "= 'over 2 minutes' (roughly 300x or more)\n");
    return shapeCheck(unaligned_s > 50 * aligned_s,
                      "unaligned at least 2 orders of magnitude "
                      "slower than aligned");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "contrived";
    s.title = "Contrived alignment microbenchmark";
    s.paperRef =
        "Wheeler & Bershad 1992, Section 2.5 (in-text experiment)";
    s.order = 60;
    s.specs = contrivedSpecs;
    s.report = contrivedReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
