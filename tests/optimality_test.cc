/**
 * @file
 * Tests for the cost-aware optimality analyzers: the static cost
 * model must agree with what the concrete machine charges for every
 * op kind; the necessity analyzer must expose the eager policies'
 * redundant ops (with replayable minimal traces) while proving every
 * op the shipped lazy policies issue load-bearing; the differential
 * analyzer must produce Table-2-consistent worst-case bounds and
 * refuse to cost-compare an unsound policy.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "core/policy_config.hh"
#include "machine/machine_params.hh"
#include "mem/physical_memory.hh"
#include "verify/cost_model.hh"
#include "verify/differential.hh"
#include "verify/necessity.hh"
#include "verify/policy_verifier.hh"

namespace vic
{
namespace
{

namespace verify = vic::verify;

// ---------------------------------------------------------------------
// Cost model vs the concrete machine
// ---------------------------------------------------------------------

class CostAgreementTest : public ::testing::Test
{
  protected:
    CostAgreementTest()
        : mp(MachineParams::hp720()),
          mem(64, mp.pageBytes),
          dcache("dcache", mp.dcacheGeometry(), mp.dcacheCosts,
                 WritePolicy::WriteBack, mem, clk, stats),
          icache("icache", mp.icacheGeometry(), mp.icacheCosts,
                 WritePolicy::WriteBack, mem, clk, stats),
          costs(mp)
    {
    }

    /** Cycles a callback takes on the concrete clock. */
    Cycles measure(const std::function<void()> &fn)
    {
        const Cycles before = clk.now();
        fn();
        return clk.now() - before;
    }

    MachineParams mp;
    PhysicalMemory mem;
    CycleClock clk;
    StatSet stats;
    Cache dcache;
    Cache icache;
    verify::CostModel costs;

    const VirtAddr va{3 * 4096};
    const PhysAddr pa{2 * 4096};
};

TEST_F(CostAgreementTest, AbsentDataPurgeMatchesConcreteCache)
{
    const Cycles measured =
        measure([&] { dcache.purgePage(va, pa); });
    const verify::IssuedOp op{CacheKind::Data, RequiredOp::Purge, 0,
                              /*present=*/false, /*dirty=*/false};
    EXPECT_EQ(costs.opCycles(op), measured);
    EXPECT_EQ(measured, costs.dataPageOpCycles(0));
}

TEST_F(CostAgreementTest, PresentCleanOpMatchesConcreteCache)
{
    // One line of the page present and clean: purge and flush charge
    // the same (no write-back), both matching the model.
    (void)dcache.read(va, pa);
    const Cycles purge = measure([&] { dcache.purgePage(va, pa); });
    const verify::IssuedOp op{CacheKind::Data, RequiredOp::Purge, 0,
                              /*present=*/true, /*dirty=*/false};
    EXPECT_EQ(costs.opCycles(op), purge);

    (void)dcache.read(va, pa);
    const Cycles flush = measure([&] { dcache.flushPage(va, pa); });
    const verify::IssuedOp fop{CacheKind::Data, RequiredOp::Flush, 0,
                               /*present=*/true, /*dirty=*/false};
    EXPECT_EQ(costs.opCycles(fop), flush);
    EXPECT_EQ(flush, purge);
}

TEST_F(CostAgreementTest, DirtyFlushPaysWriteBackPenalty)
{
    dcache.write(va, pa, 7);
    const Cycles measured =
        measure([&] { dcache.flushPage(va, pa); });
    const verify::IssuedOp op{CacheKind::Data, RequiredOp::Flush, 0,
                              /*present=*/true, /*dirty=*/true};
    EXPECT_EQ(costs.opCycles(op), measured);
    const verify::IssuedOp clean{CacheKind::Data, RequiredOp::Flush, 0,
                                 /*present=*/true, /*dirty=*/false};
    EXPECT_EQ(costs.opCycles(op),
              costs.opCycles(clean) + mp.dcacheCosts.writeBackPenalty);
}

TEST_F(CostAgreementTest, DirtyPurgeDiscardsWithoutWriteBack)
{
    dcache.write(va, pa, 7);
    const Cycles measured =
        measure([&] { dcache.purgePage(va, pa); });
    const verify::IssuedOp op{CacheKind::Data, RequiredOp::Purge, 0,
                              /*present=*/true, /*dirty=*/true};
    EXPECT_EQ(costs.opCycles(op), measured);
}

TEST_F(CostAgreementTest, InstPurgeIsUniformCost)
{
    // The 720's instruction cache charges the present price per line
    // whether or not the line holds data, so present and absent page
    // purges cost the same.
    const Cycles absent = measure([&] { icache.purgePage(va, pa); });
    (void)icache.read(va, pa);
    const Cycles present = measure([&] { icache.purgePage(va, pa); });
    EXPECT_EQ(absent, present);
    const verify::IssuedOp op{CacheKind::Instruction,
                              RequiredOp::Purge, 0,
                              /*present=*/false, /*dirty=*/false};
    EXPECT_EQ(costs.opCycles(op), absent);
}

TEST_F(CostAgreementTest, StepCyclesSumsTrapsPmapCallsAndOps)
{
    verify::StepTrace t;
    t.traps = 2;
    t.pmapCalls = 3;
    t.ops.push_back({CacheKind::Data, RequiredOp::Purge, 0, false,
                     false});
    const Cycles expected = 2 * mp.trapCycles +
        3 * mp.pmapOverheadCycles + costs.dataPageOpCycles(0);
    EXPECT_EQ(costs.stepCycles(t), expected);
}

/** Every policy the verifier checks, the deliberately broken one
 *  included. */
std::vector<PolicyConfig>
everyPolicy()
{
    std::vector<PolicyConfig> all = PolicyConfig::table4Sweep();
    for (const PolicyConfig &p : PolicyConfig::table5Systems())
        all.push_back(p);
    all.push_back(PolicyConfig::broken());
    return all;
}

TEST_F(CostAgreementTest, WholeStepsCostWhatTheConcreteMachineCharges)
{
    // Zero every cost the model leaves out (hits, fills, TLB misses,
    // DMA and disk), so an event's clock delta on the concrete machine
    // is exactly traps, pmap bookkeeping and page ops.
    MachineParams machine = MachineParams::hp720();
    for (CacheCosts *c : {&machine.dcacheCosts, &machine.icacheCosts}) {
        c->hit = 0;
        c->missPenalty = 0;
    }
    machine.tlbMissPenalty = 0;
    machine.dmaCosts.setup = 0;
    machine.dmaCosts.perWord = 0;
    machine.diskAccessCycles = 0;
    const verify::CostModel model(machine);

    for (const PolicyConfig &policy : everyPolicy()) {
        // Every trace of three events for one policy of each pmap
        // family (eager, per-VA residue, lazy), of two for the rest.
        const bool deep = policy.name == "Utah" || policy.name == "Tut" ||
            policy.name == "CMU";
        const std::size_t len = deep ? 3 : 2;
        const verify::AbstractSimulator sim(policy);
        const std::vector<verify::Event> alpha = sim.alphabet();

        std::uint64_t events = 0;
        std::uint64_t disagreements = 0;
        std::vector<std::size_t> idx(len, 0);
        for (bool more = true; more;) {
            verify::Trace trace;
            for (std::size_t k : idx)
                trace.push_back(alpha[k]);
            const verify::ReplayResult concrete =
                verify::replay(policy, trace, machine);
            ASSERT_EQ(concrete.eventCycles.size(), trace.size());
            verify::ModelState s = sim.initial();
            for (std::size_t i = 0; i < trace.size(); ++i) {
                verify::StepTrace step;
                (void)sim.stepTraced(s, trace[i], step);
                ++events;
                const Cycles modelled = model.stepCycles(step);
                if (modelled == concrete.eventCycles[i])
                    continue;
                if (++disagreements <= 3)
                    ADD_FAILURE()
                        << policy.name << ": " << verify::traceName(trace)
                        << " event " << i << " modelled " << modelled
                        << " cycles (" << step.traps << " traps, "
                        << step.pmapCalls << " pmap calls, "
                        << step.ops.size() << " ops), concrete "
                        << concrete.eventCycles[i];
            }
            std::size_t p = 0;
            while (p < len && ++idx[p] == alpha.size())
                idx[p++] = 0;
            more = p < len;
        }
        EXPECT_EQ(disagreements, 0u)
            << policy.name << ": of " << events << " events";
    }
}

// ---------------------------------------------------------------------
// Necessity
// ---------------------------------------------------------------------

TEST(NecessityTest, EagerClassicIssuesProvablyRedundantOps)
{
    const verify::NecessityResult r =
        verify::analyzeNecessity(PolicyConfig::configA());
    ASSERT_TRUE(r.sound);
    ASSERT_TRUE(r.complete);
    EXPECT_TRUE(r.adversariallyClean);
    EXPECT_EQ(r.numStates, 839u);
    // The eager strategy burns ops the machine never needed — the
    // statically derived face of the paper's Table 1 waste: four in
    // five of the ops config A issues are redundant where issued.
    EXPECT_EQ(r.opsExamined, 15'220u);
    EXPECT_EQ(r.redundantOps, 12'158u);
    EXPECT_EQ(r.necessaryOps, 3'062u);
    EXPECT_EQ(r.inconclusiveOps, 0u);
}

TEST(NecessityTest, EagerClassicExemplarHasReplayableTrace)
{
    const verify::NecessityResult r =
        verify::analyzeNecessity(PolicyConfig::configA());
    ASSERT_TRUE(r.sound);

    // Each site's exemplar is its first redundant instance in BFS
    // order, so its trace is a shortest one.
    const std::map<std::string, std::string> first_redundant{
        {"classic.dma-in.purge", "load@A -> dma-in"},
        {"classic.dma-out.flush", "store@A -> store@C -> dma-out"},
        {"classic.enter.break-alias", "load@A -> load@B"},
        {"classic.exec-mode", "ifetch@A"},
        {"classic.fault.break-alias",
         "ifetch@A -> load@B -> store@A"},
        {"classic.unmap.clean", "load@A -> unmap@A"},
    };
    std::size_t found = 0;
    for (const verify::SiteReport &s : r.sites) {
        if (!s.exemplar)
            continue;
        ++found;
        EXPECT_GT(s.exemplar->wastedCycles, 0u);
        // The minimal trace reaching the redundant op must replay
        // clean on the concrete machine: the policy (op included) is
        // sound, and the trace is a real executable schedule, not an
        // artifact of the abstraction.
        verify::Trace full = s.exemplar->prefix;
        full.push_back(s.exemplar->event);
        const auto want = first_redundant.find(s.site);
        ASSERT_NE(want, first_redundant.end()) << s.site;
        EXPECT_EQ(verify::traceName(full), want->second) << s.site;
        const verify::ReplayResult rr =
            verify::replay(PolicyConfig::configA(), full);
        EXPECT_FALSE(rr.violated)
            << "exemplar trace violated at " << s.site;
    }
    EXPECT_EQ(found, first_redundant.size());
}

TEST(NecessityTest, ShippedLazyPoliciesIssueOnlyNecessaryOps)
{
    for (const PolicyConfig &p : PolicyConfig::table4Sweep()) {
        if (p.pmapKind != PmapKind::Lazy)
            continue;
        const verify::NecessityResult r = verify::analyzeNecessity(p);
        ASSERT_TRUE(r.sound) << p.name;
        ASSERT_TRUE(r.complete) << p.name;
        EXPECT_EQ(r.numStates, 1'001u) << p.name;
        EXPECT_EQ(r.opsExamined, 5'672u) << p.name;
        EXPECT_EQ(r.redundantOps, 0u) << p.name;
        EXPECT_EQ(r.inconclusiveOps, 0u) << p.name;
        EXPECT_EQ(r.necessaryOps, 5'672u) << p.name;
    }
}

TEST(NecessityTest, ClassicPoliciesHaveNoRemovableSiteLeft)
{
    // Per-instance waste is inherent to the eager strategies; a call
    // site redundant in EVERY instance would be dead code. The two
    // such sites the analyzer originally found (the classic ifetch
    // re-purge and Tut's purge of the new colour on remap) have been
    // removed from the shipping pmaps.
    // Utah and Apollo run config A's rules, so they share its counts.
    const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        examined_redundant{
            {"Utah", {15'220, 12'158}},
            {"Tut", {304'016, 246'384}},
            {"Apollo", {15'220, 12'158}},
            {"Sun", {15'870, 13'082}},
        };
    std::size_t analyzed = 0;
    for (const PolicyConfig &p : PolicyConfig::table5Systems()) {
        if (p.pmapKind != PmapKind::Classic)
            continue;
        const verify::NecessityResult r = verify::analyzeNecessity(p);
        ASSERT_TRUE(r.sound) << p.name;
        EXPECT_FALSE(r.anyRemovableSite()) << p.name;
        const auto want = examined_redundant.find(p.name);
        ASSERT_NE(want, examined_redundant.end()) << p.name;
        EXPECT_EQ(r.opsExamined, want->second.first) << p.name;
        EXPECT_EQ(r.redundantOps, want->second.second) << p.name;
        ++analyzed;
    }
    EXPECT_EQ(analyzed, examined_redundant.size());
}

TEST(NecessityTest, UnsoundPolicyIsRejectedNotAnalyzed)
{
    const verify::NecessityResult r =
        verify::analyzeNecessity(PolicyConfig::broken());
    EXPECT_FALSE(r.sound);
    EXPECT_EQ(verify::traceName(r.counterexample), "store@A -> ifetch@A");
    EXPECT_TRUE(r.violation.has_value());
    EXPECT_EQ(r.numStates, 19u);
    EXPECT_EQ(r.opsExamined, 0u);
}

// ---------------------------------------------------------------------
// Cost census
// ---------------------------------------------------------------------

TEST(CostCensusTest, LazyNeverTouchesAbsentLinesEagerDoes)
{
    const verify::CostCensus lazy =
        verify::runCostCensus(PolicyConfig::cmu());
    ASSERT_TRUE(lazy.fixedPointReached);
    EXPECT_EQ(lazy.numStates, 1'001u);
    EXPECT_EQ(lazy.numTransitions, 14'014u);
    EXPECT_EQ(lazy.absentOps, 0u);
    EXPECT_EQ(lazy.presentOps, 5'672u);
    EXPECT_EQ(lazy.faults, 7'433u);
    // The worst step and its trace are the first maximum in BFS order;
    // the worst path is the costliest BFS-tree path.
    EXPECT_EQ(lazy.worstStepCycles, 2'265u);
    EXPECT_EQ(verify::traceName(lazy.worstStepTrace),
              "ifetch@A -> store@A -> ifetch@A");
    EXPECT_EQ(lazy.worstPathCycles, 1'429u);

    const verify::CostCensus eager =
        verify::runCostCensus(PolicyConfig::utah());
    ASSERT_TRUE(eager.fixedPointReached);
    EXPECT_EQ(eager.numStates, 839u);
    EXPECT_EQ(eager.numTransitions, 11'746u);
    EXPECT_EQ(eager.dataFlushes, 614u);
    EXPECT_EQ(eager.dataPurges, 6'886u);
    EXPECT_EQ(eager.instPurges, 7'720u);
    EXPECT_EQ(eager.presentOps, 5'633u);
    EXPECT_EQ(eager.absentOps, 9'587u);
    EXPECT_EQ(eager.faults, 4'149u);
    EXPECT_EQ(eager.worstStepCycles, 6'168u);
    EXPECT_EQ(verify::traceName(eager.worstStepTrace),
              "load@A -> ifetch@C -> load@B -> dma-in");
    EXPECT_EQ(eager.worstPathCycles, 13'370u);
}

// ---------------------------------------------------------------------
// Differential
// ---------------------------------------------------------------------

TEST(DifferentialTest, UnsoundPolicyYieldsNoCostDiff)
{
    const verify::DiffResult r = verify::comparePolicies(
        PolicyConfig::broken(), PolicyConfig::cmu());
    EXPECT_FALSE(r.comparable);
    EXPECT_EQ(r.unsoundPolicy, PolicyConfig::broken().name);
    EXPECT_FALSE(r.unsoundTrace.empty());
    EXPECT_TRUE(r.classes.empty());
}

TEST(DifferentialTest, ClassicVsLazyBoundsFollowTable2)
{
    const verify::DiffResult r = verify::comparePolicies(
        PolicyConfig::utah(), PolicyConfig::cmu());
    ASSERT_TRUE(r.comparable);
    ASSERT_TRUE(r.fixedPointReached);

    const verify::CostModel costs;
    for (const verify::DiffClassBound &c : r.classes) {
        // Table 2: a read or ifetch whose target cache page is Empty
        // or Present needs no consistency work under the lazy scheme
        // (unless a dirty page is displaced, the "+disp" classes).
        const bool read_like = c.label.rfind("load", 0) == 0 ||
            c.label.rfind("ifetch", 0) == 0;
        const bool displacing =
            c.label.find("+disp") != std::string::npos;
        // No cache op is issued, though the access may still trap
        // into the kernel (lazy first-touch) and run the pmap.
        const Cycles overhead =
            costs.trapCycles() + costs.pmapCycles();
        if (read_like && !displacing &&
            (c.label.find("tgt=E") != std::string::npos ||
             c.label.find("tgt=P") != std::string::npos)) {
            EXPECT_LE(c.worstB, overhead) << c.label;
        }
        // A stale target must at least pay the purge.
        if (!displacing &&
            c.label.find("tgt=S") != std::string::npos) {
            EXPECT_GE(c.worstB, costs.dataPageOpCycles(1))
                << c.label;
        }
        // Displacing a dirty page costs at least the flush.
        if (displacing) {
            EXPECT_GE(c.worstB, costs.dataPageOpCycles(1)) << c.label;
        }
    }

    // The eager strategy pays where the lazy one rides free — the
    // Table 1/2 ordering — and never the other way round by less.
    EXPECT_GT(r.aPaysBFree, 0u);
    EXPECT_GE(r.worstPathA, r.worstPathB);

    // The product graph and its bounds, as the search reports them.
    EXPECT_EQ(r.productStates, 10'770u);
    EXPECT_EQ(r.productTransitions, 150'780u);
    EXPECT_EQ(r.aPaysBFree, 38'142u);
    EXPECT_EQ(r.bPaysAFree, 22'841u);
    EXPECT_EQ(r.worstStepA, 6'168u);
    EXPECT_EQ(r.worstStepB, 2'265u);
    EXPECT_EQ(r.worstStepGap, 6'128u);
    EXPECT_EQ(verify::traceName(r.worstGapTrace),
              "load@A -> ifetch@C -> load@B -> dma-in");
    EXPECT_EQ(r.worstPathA, 18'934u);
    EXPECT_EQ(r.worstPathB, 5'885u);
    EXPECT_EQ(r.classes.size(), 22u);
    std::uint64_t classified = 0;
    for (const verify::DiffClassBound &c : r.classes)
        classified += c.transitions;
    EXPECT_EQ(classified, r.productTransitions);
}

} // anonymous namespace
} // namespace vic
