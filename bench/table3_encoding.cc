/**
 * @file
 * Table 3 — "Correspondence between cache page state and data
 * structures maintained by the algorithm": prints the encoding table
 * and validates it live by sampling the decoded state of every
 * (resident frame, colour) pair during a real workload run under the
 * lazy pmap, tallying how often each state occurs and checking the
 * encoding invariants throughout.
 *
 * The engine contributes the oracle-checked afs-bench/config-F sweep;
 * the live census needs direct access to the LazyPmap internals, so
 * it builds its own machine inside validate().
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/table.hh"
#include "core/lazy_pmap.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"
#include "workload/latex_bench.hh"

namespace vic::bench
{
namespace
{

std::vector<RunSpec>
table3Specs()
{
    return {paperSpec("table3", 0, PolicyConfig::configF())};
}

bool
table3Report(const std::vector<RunOutcome> &out)
{
    const RunResult &r = out[0].result;
    std::printf("engine sweep: afs-bench under config F, oracle "
                "checked %llu transfers, %llu violations\n\n",
                (unsigned long long)r.oracleChecked,
                (unsigned long long)r.oracleViolations);
    return true;
}

bool
table3Validate()
{
    Table t({"Cache page state", "P[p].mapped[c]", "P[p].stale[c]",
             "P[p].cache_dirty"});
    t.row();
    t.cell(std::string("Empty"));
    t.cell(std::string("false"));
    t.cell(std::string("false"));
    t.cell(std::string("-"));
    t.row();
    t.cell(std::string("Present"));
    t.cell(std::string("true"));
    t.cell(std::string("false"));
    t.cell(std::string("false"));
    t.row();
    t.cell(std::string("Dirty"));
    t.cell(std::string("true"));
    t.cell(std::string("false"));
    t.cell(std::string("true"));
    t.row();
    t.cell(std::string("Stale"));
    t.cell(std::string("false"));
    t.cell(std::string("true"));
    t.cell(std::string("-"));
    t.print();

    // Live validation: run afs-bench under config F and census the
    // decoded states of all frames at several points.
    Machine machine{MachineParams::hp720()};
    ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);
    Kernel kernel(machine, PolicyConfig::configF());
    auto *lazy = dynamic_cast<LazyPmap *>(&kernel.pmap());

    std::uint64_t census[4] = {0, 0, 0, 0};
    auto sample = [&] {
        const std::uint32_t colours =
            machine.dcache().geometry().numColours();
        for (FrameId f = 0; f < machine.params().numFrames; ++f) {
            const PhysPageInfo *info = lazy->info(f);
            if (!info)
                continue;
            info->dstate.checkInvariants();
            info->istate.checkInvariants();
            for (CachePageId c = 0; c < colours; ++c)
                ++census[static_cast<int>(info->dstate.decode(c))];
        }
    };

    // Sample after a warm-up workload and again after the main one
    // (distinct workloads so their file names don't collide).
    {
        LatexBench::Params p;
        p.inputPages = 2;
        p.passes = 1;
        LatexBench warm(p);
        warm.run(kernel);
        sample();
    }
    makePaperWorkload(0)->run(kernel);
    sample();

    std::printf("\nlive census of decoded (frame, colour) data-cache "
                "states during afs-bench:\n");
    for (int i = 0; i < 4; ++i) {
        std::printf("  %-8s %10llu\n",
                    cachePageStateName(static_cast<CachePageState>(i)),
                    (unsigned long long)census[i]);
    }
    std::printf("encoding invariants (mapped/stale disjoint; dirty => "
                "exactly one mapped colour) held at every sample\n");
    std::printf("oracle: %llu transfers checked, %llu violations\n",
                (unsigned long long)oracle.checkedCount(),
                (unsigned long long)oracle.violationCount());
    return oracle.violationCount() == 0;
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "table3";
    s.title = "Table 3: cache page state encoding";
    s.paperRef = "Wheeler & Bershad 1992, Table 3 (Section 4.1)";
    s.order = 30;
    s.specs = table3Specs;
    s.report = table3Report;
    s.validate = table3Validate;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
