/**
 * @file
 * Example: explore consistency policies and machine geometries from
 * the command line.
 *
 *   policy_explorer [policy] [workload] [--colours N] [--pipt]
 *                   [--write-through] [--snoop] [--ways N]
 *                   [--cpus N] [--stats] [--trace N]
 *
 *   policy:   A B C D E F cmu utah tut apollo sun broken  (default F)
 *   workload: afs latex build alias-aligned alias-unaligned
 *             (default afs)
 *
 * Prints the run's elapsed time, fault and cache-operation counts and
 * the oracle verdict, and exits 1 if the oracle saw a violation. The
 * numeric flags take whole decimal numbers (--trace may be 0, the
 * others must be positive); anything else exits 2 naming the flag.
 * Handy for eyeballing how one knob changes the numbers, e.g.:
 *
 *   ./build/examples/policy_explorer A build
 *   ./build/examples/policy_explorer F build --pipt
 *   ./build/examples/policy_explorer broken alias-unaligned
 */

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "os/os_params.hh"
#include "workload/afs_bench.hh"
#include "workload/contrived_alias.hh"
#include "workload/kernel_build.hh"
#include "workload/latex_bench.hh"
#include "workload/runner.hh"

using namespace vic;

namespace
{

PolicyConfig
parsePolicy(const std::string &name)
{
    if (name == "A") return PolicyConfig::configA();
    if (name == "B") return PolicyConfig::configB();
    if (name == "C") return PolicyConfig::configC();
    if (name == "D") return PolicyConfig::configD();
    if (name == "E") return PolicyConfig::configE();
    if (name == "F") return PolicyConfig::configF();
    if (name == "cmu") return PolicyConfig::cmu();
    if (name == "utah") return PolicyConfig::utah();
    if (name == "tut") return PolicyConfig::tut();
    if (name == "apollo") return PolicyConfig::apollo();
    if (name == "sun") return PolicyConfig::sun();
    if (name == "broken") return PolicyConfig::broken();
    std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
    std::exit(2);
}

std::unique_ptr<Workload>
parseWorkload(const std::string &name)
{
    if (name == "afs") return std::make_unique<AfsBench>();
    if (name == "latex") return std::make_unique<LatexBench>();
    if (name == "build") return std::make_unique<KernelBuild>();
    if (name == "alias-aligned") {
        return std::make_unique<ContrivedAlias>(
            ContrivedAlias::Params{true, 20000, true});
    }
    if (name == "alias-unaligned") {
        return std::make_unique<ContrivedAlias>(
            ContrivedAlias::Params{false, 20000, true});
    }
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string policy_name = argc > 1 ? argv[1] : "F";
    std::string workload_name = argc > 2 ? argv[2] : "afs";

    PolicyConfig policy = parsePolicy(policy_name);
    MachineParams mp = MachineParams::hp720();
    bool dump_stats = false;
    std::size_t trace_events = 0;

    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pipt")) {
            mp.dcacheIndexing = Indexing::Physical;
            mp.icacheIndexing = Indexing::Physical;
        } else if (!std::strcmp(argv[i], "--write-through")) {
            mp.dcachePolicy = WritePolicy::WriteThrough;
        } else if (!std::strcmp(argv[i], "--snoop")) {
            mp.dmaSnoops = true;
        } else if (!std::strcmp(argv[i], "--ways") && i + 1 < argc) {
            mp.dcacheWays = parseCount(argv[i], argv[i + 1], 1u);
            mp.icacheWays = mp.dcacheWays;
            ++i;
        } else if (!std::strcmp(argv[i], "--colours") &&
                   i + 1 < argc) {
            // Colours = cache size / page size for direct mapping.
            const std::uint32_t colours =
                parseCount(argv[i], argv[i + 1], 1u);
            mp.dcacheBytes = std::uint64_t(colours) * mp.pageBytes;
            mp.icacheBytes = mp.dcacheBytes;
            ++i;
        } else if (!std::strcmp(argv[i], "--cpus") && i + 1 < argc) {
            mp.numCpus = parseCount(argv[i], argv[i + 1], 1u);
            ++i;
        } else if (!std::strcmp(argv[i], "--stats")) {
            dump_stats = true;
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            trace_events = parseCount(argv[i], argv[i + 1],
                                      std::size_t(0));
            ++i;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return 2;
        }
    }

    auto workload = parseWorkload(workload_name);
    RunResult r = runWorkload(*workload, policy, mp, OsParams{},
                              trace_events);

    std::printf("workload : %s\n", r.workload.c_str());
    std::printf("policy   : %s\n", r.policy.c_str());
    std::printf("geometry : %llu KB %s %u-way, %u colour(s), %s, "
                "DMA %s\n",
                (unsigned long long)(mp.dcacheBytes / 1024),
                mp.dcacheIndexing == Indexing::Virtual ? "VIPT"
                                                       : "PIPT",
                mp.dcacheWays, mp.dcacheGeometry().numColours(),
                mp.dcachePolicy == WritePolicy::WriteBack
                    ? "write-back" : "write-through",
                mp.dmaSnoops ? "snooping" : "not snooping");
    if (mp.numCpus > 1)
        std::printf("cpus     : %u (hardware-coherent data caches)\n",
                    mp.numCpus);
    std::printf("\n");
    std::printf("elapsed            : %.4f s (%llu cycles @ 50 MHz)\n",
                r.seconds, (unsigned long long)r.cycles);
    std::printf("mapping faults     : %llu\n",
                (unsigned long long)r.mappingFaults());
    std::printf("consistency faults : %llu\n",
                (unsigned long long)r.consistencyFaults());
    std::printf("cow faults         : %llu\n",
                (unsigned long long)r.stat("os.cow_faults"));
    std::printf("D page flushes     : %llu (dma %llu, d->i %llu)\n",
                (unsigned long long)r.dPageFlushes(),
                (unsigned long long)r.dmaReadFlushes(),
                (unsigned long long)r.stat("pmap.d_flush.ifetch"));
    std::printf("D page purges      : %llu (dma %llu)\n",
                (unsigned long long)r.dPagePurges(),
                (unsigned long long)r.dmaWritePurges());
    std::printf("I page purges      : %llu\n",
                (unsigned long long)r.iPagePurges());
    // Over every data cache: a multiprocessor names them dcacheN.
    const std::uint64_t hits = r.sumMatching("dcache", ".hits");
    const std::uint64_t misses = r.sumMatching("dcache", ".misses");
    std::printf("cache hit rate     : %.2f%%\n",
                100.0 * double(hits) / double(hits + misses));
    if (dump_stats) {
        std::printf("\nall non-zero counters:\n");
        std::vector<std::pair<std::string, std::uint64_t>> sorted(
            r.stats.begin(), r.stats.end());
        std::sort(sorted.begin(), sorted.end());
        for (const auto &[k, v] : sorted) {
            if (v)
                std::printf("  %-36s %llu\n", k.c_str(),
                            (unsigned long long)v);
        }
    }

    if (!r.traceTail.empty()) {
        std::printf("\nlast %zu consistency events:\n",
                    r.traceTail.size());
        for (const auto &e : r.traceTail)
            std::printf("  %s\n", e.c_str());
    }

    std::printf("\noracle: %llu checked, %llu violations%s\n",
                (unsigned long long)r.oracleChecked,
                (unsigned long long)r.oracleViolations,
                r.oracleViolations
                    ? "  <-- THE MEMORY SYSTEM RETURNED STALE DATA"
                    : " (consistent)");
    return r.oracleViolations ? 1 : 0;
}
