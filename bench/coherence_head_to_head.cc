/**
 * @file
 * Hardware vs software consistency, head to head (Section 7 of the
 * paper argues the software approach's costs are small enough to make
 * dedicated consistency hardware unnecessary — this suite puts a
 * number on both sides of that argument).
 *
 * Three configurations of a 2-CPU machine run the paper workloads:
 *
 *   Classic A  software consistency, eager pmap (the "old" system),
 *              MESI bus between the data caches only
 *   Lazy F     software consistency, the paper's lazy state machine,
 *              same machine
 *   HW         NO software consistency ops at all: the machine
 *              resolves every failure mode in hardware — MESI bus,
 *              instruction caches as read-only bus ports, reverse-
 *              lookup synonym self-snoops, and snooping DMA
 *
 * Each row reports the software side (flushes, purges, consistency
 * faults, flush/purge cycles) against the hardware side (bus snoop
 * cycles, synonym snoop cycles, invalidations, interventions). Shape
 * checks: every row is oracle-clean, the HW rows issue exactly zero
 * software consistency operations, and the hardware-coherent machine
 * actually pays for it in bus/snoop work.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

constexpr std::size_t numConfigs = 3;

MachineParams
mesiMachine()
{
    MachineParams p = MachineParams::hp720();
    p.numCpus = 2;
    return p; // cpuCoherence defaults to Mesi
}

MachineParams
hardwareMachine()
{
    MachineParams p = mesiMachine();
    p.synonymCoherence = true;
    p.ifetchCoherence = true;
    p.dmaSnoops = true;
    return p;
}

std::vector<RunSpec>
coherenceSpecs()
{
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        specs.push_back(paperSpec("coherence", w,
                                  PolicyConfig::configA(),
                                  mesiMachine(), "mesi"));
        specs.push_back(paperSpec("coherence", w,
                                  PolicyConfig::configF(),
                                  mesiMachine(), "mesi"));
        specs.push_back(paperSpec("coherence", w,
                                  PolicyConfig::hardware(),
                                  hardwareMachine(), "hw"));
    }
    return specs;
}

/** Software consistency cache operations the pmap issued. (The
 *  kernel's consistency-fault counter is excluded deliberately: it
 *  also classifies refaults after pageout eviction, which every
 *  architecture pays, so it is reported in the table but does not
 *  gate the zero-software-ops claim.) */
std::uint64_t
softwareOps(const RunResult &r)
{
    return r.dPageFlushes() + r.dPagePurges() + r.iPagePurges();
}

/** Cycles spent in software flush/purge across every cache. */
std::uint64_t
softwareCycles(const RunResult &r)
{
    return r.sumMatching("dcache", ".flush_cycles") +
           r.sumMatching("dcache", ".purge_cycles") +
           r.sumMatching("icache", ".flush_cycles") +
           r.sumMatching("icache", ".purge_cycles");
}

/** Cycles the coherence hardware charged: bus interventions plus
 *  reverse-lookup synonym self-snoops. */
std::uint64_t
hardwareCycles(const RunResult &r)
{
    return r.stat("bus.snoop_cycles") +
           r.sumMatching("dcache", ".synonym_snoop_cycles") +
           r.sumMatching("icache", ".synonym_snoop_cycles");
}

bool
coherenceReport(const std::vector<RunOutcome> &outcomes)
{
    bool hw_silent = true;  ///< HW rows issue no software op
    bool hw_active = true;  ///< HW rows exercise the hardware
    bool lazy_wins = true;  ///< F's software cycles <= A's

    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        Table t({"Config", "Elapsed (s)", "Cons faults", "D flushes",
                 "Purges", "SW cons cycles", "Bus snoop cyc",
                 "Synonym cyc", "Invalidations", "Interventions"});
        std::vector<RunResult> rows;
        for (std::size_t c = 0; c < numConfigs; ++c) {
            const RunResult &r =
                outcomes[w * numConfigs + c].result;
            rows.push_back(r);

            t.row();
            t.cell(r.policy);
            t.cell(r.seconds, 4);
            t.cell(r.consistencyFaults());
            t.cell(r.dPageFlushes());
            t.cell(r.dPagePurges() + r.iPagePurges());
            t.cell(softwareCycles(r));
            t.cell(r.stat("bus.snoop_cycles"));
            t.cell(hardwareCycles(r) - r.stat("bus.snoop_cycles"));
            t.cell(r.stat("bus.invalidations"));
            t.cell(r.stat("bus.interventions"));
        }
        std::printf("--- %s ---\n", rows.front().workload.c_str());
        t.print();
        std::printf("\n");

        const RunResult &classic = rows[0];
        const RunResult &lazy = rows[1];
        const RunResult &hw = rows[2];
        hw_silent &= softwareOps(hw) == 0 && softwareCycles(hw) == 0;
        hw_active &= hardwareCycles(hw) > 0;
        lazy_wins &= softwareCycles(lazy) <= softwareCycles(classic);
    }

    bool ok = outcomesClean(outcomes);
    ok &= shapeCheck(hw_silent,
                     "hardware-coherent rows issue zero software "
                     "consistency operations");
    ok &= shapeCheck(hw_active,
                     "hardware-coherent rows pay nonzero bus/synonym "
                     "snoop cycles");
    ok &= shapeCheck(lazy_wins,
                     "lazy policy spends no more software consistency "
                     "cycles than classic");
    return ok;
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "coherence";
    s.title = "Hardware vs software consistency on a 2-CPU MESI "
              "machine";
    s.paperRef = "Wheeler & Bershad 1992, Sections 3.3 and 7";
    s.order = 55;
    s.specs = coherenceSpecs;
    s.report = coherenceReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
