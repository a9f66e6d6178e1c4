/**
 * @file
 * Ablation A3 — Section 3.3, "Application to other architectures":
 * the same workload and the same consistency model on
 *
 *   - the baseline VIPT write-back machine,
 *   - a write-through VIPT machine (no dirty state, no write-backs),
 *   - a physically indexed machine (no alias management at all),
 *   - a VIPT machine whose DMA snoops the caches,
 *   - 2-way and page-span set-associative VIPT machines,
 *   - a 2-CPU machine with hardware-coherent data caches.
 *
 * Expected shape: every variant is consistent; each drops exactly the
 * class of operations the paper says it makes unnecessary.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

struct Variant
{
    const char *name; ///< display name
    const char *tag;  ///< run-id slug
    MachineParams mp;
};

std::vector<Variant>
architectureVariants()
{
    std::vector<Variant> variants;

    variants.push_back({"VIPT write-back (base)", "base",
                        MachineParams::hp720()});
    {
        MachineParams mp = MachineParams::hp720();
        mp.dcachePolicy = WritePolicy::WriteThrough;
        variants.push_back({"VIPT write-through", "write-through", mp});
    }
    {
        MachineParams mp = MachineParams::hp720();
        mp.dcacheIndexing = Indexing::Physical;
        mp.icacheIndexing = Indexing::Physical;
        variants.push_back({"physically indexed", "physical", mp});
    }
    {
        MachineParams mp = MachineParams::hp720();
        mp.dmaSnoops = true;
        variants.push_back({"VIPT + snooping DMA", "snoop-dma", mp});
    }
    {
        MachineParams mp = MachineParams::hp720();
        mp.dcacheWays = 2;
        mp.icacheWays = 2;
        variants.push_back({"VIPT 2-way (8 colours)", "2way", mp});
    }
    {
        MachineParams mp = MachineParams::hp720();
        mp.dcacheWays = 16;
        mp.icacheWays = 16;
        variants.push_back({"VIPT 16-way (span=page)", "16way", mp});
    }
    {
        MachineParams mp = MachineParams::hp720();
        mp.numCpus = 2;
        variants.push_back({"VIPT 2-CPU coherent", "2cpu", mp});
    }
    return variants;
}

std::vector<RunSpec>
architecturesSpecs()
{
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        for (const Variant &v : architectureVariants()) {
            specs.push_back(paperSpec("architectures", w,
                                      PolicyConfig::configF(),
                                      v.mp, v.tag));
        }
    }
    return specs;
}

bool
architecturesReport(const std::vector<RunOutcome> &outcomes)
{
    const std::vector<Variant> variants = architectureVariants();

    bool shapes_ok = true;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        std::string wname;
        Table t({"Architecture", "Colours", "Elapsed (s)", "D flushes",
                 "D purges", "Write-backs", "Cons faults"});
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const Variant &v = variants[i];
            const RunResult &r =
                outcomes[w * variants.size() + i].result;
            wname = r.workload;
            t.row();
            t.cell(std::string(v.name));
            t.cell(std::uint64_t(v.mp.dcacheGeometry().numColours()));
            t.cell(r.seconds, 4);
            t.cell(r.dPageFlushes());
            t.cell(r.dPagePurges());
            t.cell(r.writeBacks());
            t.cell(r.consistencyFaults());

            if (v.mp.dcachePolicy == WritePolicy::WriteThrough)
                shapes_ok &= r.writeBacks() == 0;
        }
        std::printf("--- %s ---\n", wname.c_str());
        t.print();
        std::printf("\n");
    }

    std::printf("expected shapes:\n");
    std::printf("  write-through  -> zero write-backs (memory never "
                "stale)\n");
    std::printf("  physically indexed / span=page -> alias management "
                "disappears (1 colour)\n");
    std::printf("  snooping DMA   -> hardware keeps DMA coherent\n");
    std::printf("  set-associative-> same rules, fewer colours\n");
    std::printf("  2-CPU coherent -> identical software consistency "
                "work (the rules are\n");
    std::printf("  unchanged); hardware snooping adds only "
                "write-backs/bus traffic.\n");
    return shapeCheck(shapes_ok,
                      "write-through machines perform zero "
                      "write-backs");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "architectures";
    s.title = "Ablation: other memory-system architectures";
    s.paperRef = "Wheeler & Bershad 1992, Section 3.3";
    s.order = 90;
    s.specs = architecturesSpecs;
    s.report = architecturesReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
