/**
 * @file
 * Ablation A4 — cache geometry sweep.
 *
 * The consistency problem's size is the number of cache pages
 * ("colours" = set span / page size). The paper's introduction frames
 * the architectural trade: a larger direct-mapped virtually indexed
 * cache buys cycle time but grows the colour count, and hence the
 * potential consistency work; shrinking the span to the page size
 * (small cache or high associativity) eliminates the problem but costs
 * capacity/conflict misses.
 *
 * This bench sweeps the data/instruction cache size from 4 KB
 * (1 colour — no aliasing problem) to 256 KB (64 colours, the real
 * 720's data cache) under configs A and F, reporting elapsed time,
 * cache hit rate, and consistency operations.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kSizes[] = {4 * kKiB, 16 * kKiB, 64 * kKiB,
                                    256 * kKiB};
constexpr std::size_t kNumSizes = std::size(kSizes);

MachineParams
geometryParams(std::uint64_t size)
{
    MachineParams mp = MachineParams::hp720();
    mp.dcacheBytes = size;
    mp.icacheBytes = size;
    return mp;
}

std::vector<RunSpec>
geometrySpecs()
{
    std::vector<RunSpec> specs;
    for (const auto &cfg :
         {PolicyConfig::configA(), PolicyConfig::configF()}) {
        for (std::uint64_t size : kSizes) {
            // Workload 2 is kernel-build.
            specs.push_back(paperSpec(
                "geometry", 2, cfg, geometryParams(size),
                format("%lluKB", (unsigned long long)(size / kKiB))));
        }
    }
    return specs;
}

bool
geometryReport(const std::vector<RunOutcome> &outcomes)
{
    bool shapes_ok = true;
    for (std::size_t c = 0; c < 2; ++c) {
        Table t({"D-cache", "Colours", "Elapsed (s)", "Hit rate %",
                 "Cons faults", "D flushes", "D purges"});
        std::string policy;
        for (std::size_t i = 0; i < kNumSizes; ++i) {
            const std::uint64_t size = kSizes[i];
            const MachineParams mp = geometryParams(size);
            const RunResult &r = outcomes[c * kNumSizes + i].result;
            policy = r.policy;

            const double hits = double(r.stat("dcache.hits"));
            const double misses = double(r.stat("dcache.misses"));

            t.row();
            t.cell(format("%llu KB",
                          (unsigned long long)(size / kKiB)));
            t.cell(std::uint64_t(mp.dcacheGeometry().numColours()));
            t.cell(r.seconds, 4);
            t.cell(100.0 * hits / (hits + misses), 2);
            t.cell(r.consistencyFaults());
            t.cell(r.dPageFlushes());
            t.cell(r.dPagePurges());

            if (mp.dcacheGeometry().numColours() == 1)
                shapes_ok &= r.stat("pmap.d_flush.alias") == 0 &&
                             r.stat("pmap.d_purge.alias") == 0;
        }
        std::printf("--- kernel-build under %s ---\n", policy.c_str());
        t.print();
        std::printf("\n");
    }

    std::printf("expected shapes:\n");
    std::printf("  1 colour  -> no alias consistency work at all, but "
                "the worst hit rate;\n");
    std::printf("  more colours -> better hit rates; under A the "
                "consistency work grows with\n");
    std::printf("  sharing opportunities, under F it stays almost "
                "flat — the paper's point\n");
    std::printf("  that careful management removes the software "
                "penalty of big VI caches.\n");
    return shapeCheck(shapes_ok,
                      "one colour => no alias operations");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "geometry";
    s.title = "Ablation: cache size / colour count sweep";
    s.paperRef = "Wheeler & Bershad 1992, Section 1 (the "
                 "architectural trade-off)";
    s.order = 100;
    s.specs = geometrySpecs;
    s.report = geometryReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
