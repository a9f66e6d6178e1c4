/**
 * @file
 * Table 4 — "Performance of three benchmark programs using variously
 * configured versions of Mach 3.0": the six cumulative configurations
 *
 *   A old, B +lazy unmap, C +align pages, D +aligned prepare,
 *   E +need data, F +will overwrite
 *
 * against afs-bench, latex-paper and kernel-build, reporting elapsed
 * time, mapping/consistency faults, page flushes (total, DMA-read,
 * data->instruction), page purges (D and I, DMA-write), and average
 * cycles per flush/purge — plus the paper's Section 5.1 summary
 * numbers for configuration F.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

double
avgCycles(const RunResult &r, const char *cycles, std::uint64_t count)
{
    return count == 0 ? 0.0 : double(r.stat(cycles)) / double(count);
}

std::vector<RunSpec>
table4Specs()
{
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        for (const auto &cfg : PolicyConfig::table4Sweep())
            specs.push_back(paperSpec("table4", w, cfg));
    }
    return specs;
}

bool
table4Report(const std::vector<RunOutcome> &outcomes)
{
    const std::size_t num_configs =
        outcomes.size() / numPaperWorkloads;

    // Keep results for the totals row and the Section 5.1 analysis.
    std::vector<RunResult> config_f;
    bool shapes_ok = true;

    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        Table t({"Config", "Elapsed (s)", "Map faults", "Cons faults",
                 "D flushes", "DMA-rd flushes", "D->I flushes",
                 "D purges", "I purges", "DMA-wr purges",
                 "cyc/flush", "cyc/purge"});
        std::vector<RunResult> per_config;
        for (std::size_t c = 0; c < num_configs; ++c) {
            const RunResult &r =
                outcomes[w * num_configs + c].result;
            per_config.push_back(r);

            const std::uint64_t flush_ops =
                r.stat("dcache.flush_present") +
                r.stat("dcache.flush_absent");
            const std::uint64_t purge_ops =
                r.stat("dcache.purge_present") +
                r.stat("dcache.purge_absent");

            t.row();
            t.cell(r.policy);
            t.cell(r.seconds, 4);
            t.cell(r.mappingFaults());
            t.cell(r.consistencyFaults());
            t.cell(r.dPageFlushes());
            t.cell(r.dmaReadFlushes());
            t.cell(r.stat("pmap.d_flush.ifetch"));
            t.cell(r.dPagePurges());
            t.cell(r.iPagePurges());
            t.cell(r.dmaWritePurges() +
                   r.stat("pmap.i_purge.dma_write"));
            t.cell(avgCycles(r, "dcache.flush_cycles", flush_ops), 1);
            t.cell(avgCycles(r, "dcache.purge_cycles", purge_ops), 1);

            if (c + 1 == num_configs)
                config_f.push_back(r);
        }
        std::printf("--- %s ---\n",
                    per_config.front().workload.c_str());
        t.print();
        std::printf("\n");

        // The paper's structural claims for this workload.
        for (std::size_t i = 1; i < per_config.size(); ++i) {
            shapes_ok &= per_config[i].cycles <=
                         per_config[i - 1].cycles;  // monotone A->F
            shapes_ok &= per_config[i].mappingFaults() ==
                         per_config[0].mappingFaults();
        }
        shapes_ok &= per_config.back().consistencyFaults() * 4 <
                     per_config.front().consistencyFaults() + 4;
    }

    // Totals for configuration F (the paper's bottom rows + the
    // Section 5.1 overhead accounting).
    std::uint64_t flushes = 0, purges_d = 0, purges_i = 0;
    std::uint64_t dma_rd = 0, d2i = 0, dma_wr = 0;
    std::uint64_t cons_faults = 0;
    double seconds = 0;
    Cycles purge_cycles = 0;
    for (const auto &r : config_f) {
        flushes += r.dPageFlushes();
        purges_d += r.dPagePurges();
        purges_i += r.iPagePurges();
        dma_rd += r.dmaReadFlushes();
        d2i += r.stat("pmap.d_flush.ifetch");
        dma_wr += r.dmaWritePurges();
        cons_faults += r.consistencyFaults();
        seconds += r.seconds;
        purge_cycles += r.stat("dcache.purge_cycles");
    }

    std::printf("=== configuration F totals across the three "
                "benchmarks ===\n");
    std::printf("elapsed time              : %.4f s\n", seconds);
    std::printf("page flushes (D)          : %llu  (DMA-read %llu + "
                "data->instruction %llu)\n",
                (unsigned long long)flushes,
                (unsigned long long)dma_rd, (unsigned long long)d2i);
    if (flushes == dma_rd + d2i) {
        std::printf("  -> matches the paper's identity: flushes = "
                    "DMA-read flushes + D->I copies\n");
    } else {
        shapes_ok = false;
    }
    std::printf("page purges (D+I)         : %llu  (DMA-write %llu = "
                "%.1f%%)\n",
                (unsigned long long)(purges_d + purges_i),
                (unsigned long long)dma_wr,
                purges_d + purges_i
                    ? 100.0 * double(dma_wr) / double(purges_d + purges_i)
                    : 0.0);
    std::printf("consistency faults        : %llu\n",
                (unsigned long long)cons_faults);
    std::printf("time purging data cache   : %.4f s (%.2f%% of total) "
                "-- the paper: 1.50 s = 0.22%%\n",
                double(purge_cycles) / 50e6,
                100.0 * double(purge_cycles) / 50e6 / seconds);
    return shapeCheck(shapes_ok,
                      "monotone A->F, constant mapping faults, "
                      "collapsing consistency faults, config-F flush "
                      "identity");
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "table4";
    s.title = "Table 4: the six consistency-management configurations";
    s.paperRef = "Wheeler & Bershad 1992, Table 4 (Section 5)";
    s.order = 40;
    s.specs = table4Specs;
    s.report = table4Report;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
