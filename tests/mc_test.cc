/**
 * @file
 * Tests for the interleaving model checker: DPOR exploration counts
 * (every inequivalent interleaving exactly once), replayable and
 * job-count-independent race reports, oracle-confirmed minimal
 * counterexamples for broken kernel orderings, and the snooping-mode
 * ablation in which the same alphabet produces no genuine race.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_config.hh"
#include "mc/executor.hh"
#include "mc/explorer.hh"
#include "mc/race.hh"
#include "mc/scenario.hh"

namespace vic::mc
{
namespace
{

ExploreOptions
defaults()
{
    return {};
}

// --- DPOR counting ----------------------------------------------------

TEST(McExplorer, IndependentPairExploredOnce)
{
    const ScenarioResult r =
        explore(independentPair(PolicyConfig::cmu()), defaults());
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.deadlock);
    // Two commuting stores have one Mazurkiewicz trace; the reduction
    // must execute it exactly once.
    EXPECT_EQ(r.executions, 1u);
    EXPECT_EQ(r.canonicalTraces, 1u);
    EXPECT_EQ(r.distinctEndStates, 1u);
    EXPECT_TRUE(r.races.empty());
}

TEST(McExplorer, IndependentPairSleepSetsAlone)
{
    ExploreOptions opt;
    opt.persistentSets = false; // isolate the sleep-set mechanism
    const ScenarioResult r =
        explore(independentPair(PolicyConfig::cmu()), opt);
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.executions, 1u);
    EXPECT_EQ(r.canonicalTraces, 1u);
    EXPECT_GE(r.sleepPruned, 1u);
}

TEST(McExplorer, DependentPairExploredTwice)
{
    const ScenarioResult r =
        explore(dependentPair(PolicyConfig::cmu()), defaults());
    EXPECT_TRUE(r.exhausted);
    // A 2-event conflict has exactly two inequivalent interleavings;
    // each must be executed exactly once.
    EXPECT_EQ(r.executions, 2u);
    EXPECT_EQ(r.canonicalTraces, 2u);
    // The cross-cache pair is unordered, but the default machine runs
    // a MESI bus: reported as benign, not as a consistency race.
    EXPECT_EQ(r.reportedRaces(), 0u);
    EXPECT_EQ(r.benignRaces, 1u);
    EXPECT_EQ(r.violatingRuns, 0u);
}

TEST(McExplorer, ExplorationIsExactlyOncePerTrace)
{
    // Across the whole catalog the invariant "executions ==
    // inequivalent interleavings" must hold: no trace unexplored, no
    // trace explored twice.
    for (const Scenario &s : standardCatalog(PolicyConfig::cmu())) {
        const ScenarioResult r = explore(s, defaults());
        EXPECT_TRUE(r.exhausted) << s.name;
        EXPECT_EQ(r.executions, r.canonicalTraces) << s.name;
    }
}

TEST(McExplorer, BudgetExhaustionIsReported)
{
    ExploreOptions opt;
    opt.budget = 1;
    const ScenarioResult r =
        explore(dependentPair(PolicyConfig::cmu()), opt);
    EXPECT_FALSE(r.exhausted);
    EXPECT_EQ(r.executions, 1u);
}

// --- guarded kernel orderings ----------------------------------------

TEST(McExplorer, GuardedScenariosCleanUnderShippingPolicies)
{
    for (const PolicyConfig &p : PolicyConfig::table5Systems()) {
        for (const Scenario &s : guardedScenarios(p)) {
            const ScenarioResult r = explore(s, defaults());
            EXPECT_TRUE(r.exhausted) << p.name << "/" << s.name;
            EXPECT_FALSE(r.deadlock) << p.name << "/" << s.name;
            EXPECT_EQ(r.reportedRaces(), 0u)
                << p.name << "/" << s.name;
            EXPECT_EQ(r.violatingRuns, 0u)
                << p.name << "/" << s.name;
            EXPECT_TRUE(r.passed(s.expect))
                << p.name << "/" << s.name;
        }
    }
}

TEST(McExplorer, PageoutScenarioReachesAcceptanceDepth)
{
    std::vector<Scenario> g = guardedScenarios(PolicyConfig::cmu());
    const Scenario *pageout = nullptr;
    for (const Scenario &s : g)
        if (s.name == "pageout-guarded")
            pageout = &s;
    ASSERT_NE(pageout, nullptr);
    EXPECT_EQ(pageout->mparams.numCpus, 2u);

    const ScenarioResult r = explore(*pageout, defaults());
    EXPECT_TRUE(r.exhausted);
    // The 2-CPU + async-DMA alphabet is explored well past depth 5.
    EXPECT_GE(r.maxDepth, 5u);
    EXPECT_GT(r.executions, 1u);
    EXPECT_EQ(r.reportedRaces(), 0u);
}

TEST(McExplorer, SwapOutThatUnmapsBeforeItsGuardIsCaught)
{
    // The kernel's swap-out takes the busy bit, then unmaps. Swapped,
    // a store between the unmap and the guard maps the frame again on
    // demand, and the pager releases a frame that a live translation
    // reaches: a violation at the release, with a replay-confirmed
    // minimal schedule, in both memory orders.
    struct Case
    {
        MemoryOrder order;
        std::uint64_t executions;
        std::uint64_t violatingRuns;
    };
    for (const Case &c : {Case{MemoryOrder::SC, 36, 18},
                          Case{MemoryOrder::WeakStoreOrder, 180, 80}}) {
        Scenario s = guardedScenarios(PolicyConfig::cmu())[2];
        s.memoryOrder = c.order;
        const std::string name = s.name + "/" + memoryOrderName(c.order);
        EXPECT_EQ(explore(s, defaults()).violatingRuns, 0u) << name;

        std::vector<Op> &pager = s.threads[2].ops;
        ASSERT_EQ(pager[0].kind, OpKind::BusyAcquire) << name;
        ASSERT_EQ(pager[1].kind, OpKind::PmapUnmap) << name;
        std::swap(pager[0], pager[1]);
        const ScenarioResult r = explore(s, defaults());
        EXPECT_TRUE(r.exhausted) << name;
        EXPECT_EQ(r.executions, c.executions) << name;
        EXPECT_EQ(r.violatingRuns, c.violatingRuns) << name;
        EXPECT_EQ(r.reportedRaces(), 0u) << name;
        EXPECT_TRUE(r.replayConfirmed) << name;
        EXPECT_FALSE(r.passed(s.expect)) << name;
        ASSERT_FALSE(r.minimalCounterexampleLabels.empty()) << name;
        EXPECT_EQ(r.minimalCounterexampleLabels.back(),
                  "pager:busy-release")
            << name;

        Executor ex(s);
        for (int t : r.minimalCounterexample)
            ex.step(t);
        EXPECT_EQ(ex.firstViolationKind(), "release-while-mapped")
            << name;
    }
}

// --- broken orderings -------------------------------------------------

TEST(McExplorer, FlushAfterStartLosesAWriteBack)
{
    const ScenarioResult r =
        explore(flushAfterStartExemplar(PolicyConfig::cmu()),
                defaults());
    EXPECT_TRUE(r.exhausted);
    EXPECT_GE(r.reportedRaces(), 1u);
    EXPECT_GE(r.confirmedRaces, 1u);
    EXPECT_GT(r.violatingRuns, 0u);
    ASSERT_FALSE(r.minimalCounterexample.empty());
    EXPECT_LE(r.minimalCounterexample.size(), 6u);
    EXPECT_TRUE(r.replayConfirmed);
}

TEST(McExplorer, UnguardedFlushThenStoreLosesAWriteBack)
{
    const Scenario s = lostWriteBackRace(PolicyConfig::cmu());
    const ScenarioResult r = explore(s, defaults());
    EXPECT_TRUE(r.exhausted);
    EXPECT_GE(r.confirmedRaces, 1u);
    ASSERT_FALSE(r.minimalCounterexample.empty());
    EXPECT_LE(r.minimalCounterexample.size(),
              s.expect.maxCounterexample);
    EXPECT_TRUE(r.replayConfirmed);
}

TEST(McExplorer, MinimalCounterexampleReplaysDeterministically)
{
    const Scenario s = lostWriteBackRace(PolicyConfig::cmu());
    const ScenarioResult r = explore(s, defaults());
    ASSERT_FALSE(r.minimalCounterexample.empty());

    // Replaying the schedule on fresh executors is deterministic:
    // same violating step, same labels, same end state.
    std::uint64_t hash0 = 0;
    for (int round = 0; round < 2; ++round) {
        Executor ex(s);
        for (int t : r.minimalCounterexample)
            ex.step(t);
        EXPECT_GT(ex.violationCount(), 0u);
        EXPECT_EQ(ex.firstViolationStep(),
                  static_cast<int>(r.minimalCounterexample.size()) -
                      1);
        ASSERT_EQ(ex.history().size(),
                  r.minimalCounterexampleLabels.size());
        for (std::size_t i = 0; i < ex.history().size(); ++i)
            EXPECT_EQ(ex.history()[i].label,
                      r.minimalCounterexampleLabels[i]);
        if (round == 0)
            hash0 = ex.stateHash();
        else
            EXPECT_EQ(ex.stateHash(), hash0);
    }
}

TEST(McExplorer, DmaDmaOverlapIsAnUnorderedConflict)
{
    const ScenarioResult r =
        explore(dmaDmaOverlap(PolicyConfig::cmu()), defaults());
    EXPECT_TRUE(r.exhausted);
    // Two unordered device writes into the same line: a (DMA, DMA)
    // race, though no read ever observes a stale value.
    EXPECT_GE(r.reportedRaces(), 1u);
    EXPECT_EQ(r.violatingRuns, 0u);
    bool dma_dma = false;
    for (const RaceReport &race : r.races)
        if (race.labelA.find("beat") != std::string::npos &&
            race.labelB.find("beat") != std::string::npos)
            dma_dma = true;
    EXPECT_TRUE(dma_dma);
}

// --- snooping ablation ------------------------------------------------

TEST(McExplorer, SnoopingModeHasNoGenuineRaceOnSameAlphabet)
{
    const ScenarioResult r =
        explore(snoopingVariant(PolicyConfig::cmu()), defaults());
    EXPECT_TRUE(r.exhausted);
    // The same schedules exist, but every CPU/DMA pair is kept
    // coherent by hardware: benign, and the oracle agrees.
    EXPECT_EQ(r.reportedRaces(), 0u);
    EXPECT_GE(r.benignRaces, 1u);
    EXPECT_EQ(r.violatingRuns, 0u);
    EXPECT_EQ(r.confirmedRaces, 0u);
}

// --- determinism across jobs ------------------------------------------

TEST(McExplorer, ResultsIndependentOfJobCount)
{
    const std::vector<Scenario> cat =
        standardCatalog(PolicyConfig::cmu());
    const std::vector<ScenarioResult> serial =
        exploreMany(cat, defaults(), 1);
    const std::vector<ScenarioResult> parallel =
        exploreMany(cat, defaults(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const ScenarioResult &a = serial[i];
        const ScenarioResult &b = parallel[i];
        EXPECT_EQ(a.scenario, b.scenario);
        EXPECT_EQ(a.executions, b.executions);
        EXPECT_EQ(a.canonicalTraces, b.canonicalTraces);
        EXPECT_EQ(a.distinctEndStates, b.distinctEndStates);
        EXPECT_EQ(a.violatingRuns, b.violatingRuns);
        EXPECT_EQ(a.minimalCounterexampleLabels,
                  b.minimalCounterexampleLabels);
        ASSERT_EQ(a.races.size(), b.races.size());
        for (std::size_t j = 0; j < a.races.size(); ++j)
            EXPECT_EQ(a.races[j].key(), b.races[j].key());
    }
}

// --- the explorer's census, pinned ------------------------------------

/** One explored scenario's census, exactly as the explorer reports
 *  it under CMU with the default options. */
struct PinnedCensus
{
    const char *name;
    std::uint64_t executions;
    std::uint64_t canonicalTraces;
    std::uint64_t distinctEndStates;
    std::uint64_t steps;
    std::uint64_t sleepPruned;
    std::uint64_t persistentPruned;
    std::uint64_t maxDepth;
    std::size_t races;
    std::uint64_t benign;
    std::uint64_t weakWindow;
    std::uint64_t confirmed;
    std::uint64_t violatingRuns;
    std::vector<std::string> counterexample;
};

void
expectCensus(const std::vector<Scenario> &catalog,
             const std::vector<PinnedCensus> &pinned)
{
    ASSERT_EQ(catalog.size(), pinned.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const PinnedCensus &p = pinned[i];
        ASSERT_EQ(catalog[i].name, p.name);
        const ScenarioResult r = explore(catalog[i], defaults());
        EXPECT_TRUE(r.exhausted) << p.name;
        EXPECT_FALSE(r.deadlock) << p.name;
        EXPECT_EQ(r.executions, p.executions) << p.name;
        EXPECT_EQ(r.canonicalTraces, p.canonicalTraces) << p.name;
        EXPECT_EQ(r.distinctEndStates, p.distinctEndStates) << p.name;
        EXPECT_EQ(r.steps, p.steps) << p.name;
        EXPECT_EQ(r.sleepPruned, p.sleepPruned) << p.name;
        EXPECT_EQ(r.persistentPruned, p.persistentPruned) << p.name;
        EXPECT_EQ(r.maxDepth, p.maxDepth) << p.name;
        EXPECT_EQ(r.races.size(), p.races) << p.name;
        EXPECT_EQ(r.benignRaces, p.benign) << p.name;
        EXPECT_EQ(r.weakWindowRaces, p.weakWindow) << p.name;
        EXPECT_EQ(r.confirmedRaces, p.confirmed) << p.name;
        EXPECT_EQ(r.violatingRuns, p.violatingRuns) << p.name;
        EXPECT_EQ(r.minimalCounterexampleLabels, p.counterexample)
            << p.name;
        EXPECT_EQ(r.replayConfirmed, !p.counterexample.empty())
            << p.name;
        EXPECT_EQ(r.canonicalHashes.size(), r.canonicalTraces)
            << p.name;
    }
}

TEST(McExplorer, WeakCatalogCensusIsPinned)
{
    expectCensus(weakCatalog(PolicyConfig::cmu()),
                 {{"dma-out-guarded-weak", 5, 5, 3, 235, 0, 0, 10, 0, 0,
                   0, 0, 0, {}},
                  {"dma-in-guarded-weak", 5, 5, 3, 235, 0, 0, 10, 0, 0,
                   0, 0, 0, {}},
                  {"pageout-guarded-weak", 100, 100, 6, 6328, 79, 158,
                   14, 0, 0, 0, 0, 0, {}},
                  {"dma-out-missing-fence", 3, 3, 2, 56, 0, 2, 6, 1, 0,
                   1, 1, 2,
                   {"writer:store A", "writer:pmap-dma-read",
                    "writer:dma-start-read", "writer.dma1:beat#0"}},
                  {"dma-out-fenced", 1, 1, 1, 28, 0, 0, 7, 0, 0, 0, 0,
                   0, {}}});
}

TEST(McExplorer, CensusConfirmsItsCounterexampleByReplay)
{
    // The census replays its shortest violating prefix on a fresh
    // executor of its own scenario. The lost write-back's prefix,
    // counted into a census of the snooping machine (the same threads
    // with a snooping DMA engine), does not violate there.
    const PolicyConfig policy = PolicyConfig::cmu();
    const Scenario broken = lostWriteBackRace(policy);
    const ScenarioResult r = explore(broken, defaults());
    ASSERT_TRUE(r.replayConfirmed);

    Executor ex(broken);
    for (int t : r.minimalCounterexample)
        ex.step(t);
    const Scenario snooping = snoopingVariant(policy);
    RunCensus out;
    Census census(snooping, out);
    census.add(ex, r.minimalCounterexample);
    census.confirm();
    EXPECT_EQ(out.scenario, snooping.name);
    EXPECT_EQ(out.violatingRuns, 1u);
    EXPECT_EQ(out.minimalCounterexampleLabels,
              r.minimalCounterexampleLabels);
    EXPECT_FALSE(out.replayConfirmed);

    Census same(broken, out);
    same.confirm();
    EXPECT_TRUE(out.replayConfirmed);
}

TEST(McCoherence, CoherenceCatalogCensusIsPinned)
{
    expectCensus(coherenceCatalog(PolicyConfig::cmu()),
                 {{"cross-cache-sharing", 2, 2, 2, 6, 0, 0, 2, 1, 1, 0,
                   0, 0, {}},
                  {"cross-cache-stores", 2, 2, 2, 6, 0, 0, 2, 1, 1, 0, 0,
                   0, {}},
                  {"cross-cache-noncoherent", 2, 2, 1, 6, 0, 0, 2, 1, 0,
                   0, 1, 1, {"writer0:store A", "reader1:load A"}}});
}

TEST(McExplorer, WeakUnmapWaitsForBufferedStores)
{
    // The pager unmaps slot A with no busy guard while the user thread
    // stores to it under weak order. The unmap waits until no CPU
    // buffers a store to the frame, so the store drains through the
    // mapping instead of faulting after the unmap removed it.
    Scenario s = weakGuardedScenarios(PolicyConfig::cmu())[0];
    s.name = "unmap-unguarded-weak";
    Op unmap;
    unmap.kind = OpKind::PmapUnmap; // slot A, the frame under test
    s.threads[1].name = "pager";
    s.threads[1].ops = {unmap};

    Executor ex(s); // 0 user0 (store A, load A), 1 pager
    ex.step(0);     // user0's store enters its buffer: drain thread 2
    EXPECT_EQ(ex.enabled(), (std::vector<int>{0, 2}));
    ex.step(2); // the drain
    EXPECT_EQ(ex.enabled(), (std::vector<int>{0, 1}));

    const ScenarioResult r = explore(s, defaults());
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.deadlock);
    EXPECT_EQ(r.violatingRuns, 0u);
    EXPECT_EQ(r.executions, 5u);
    EXPECT_EQ(r.canonicalTraces, 5u);

    // The store's issue disables the unmap, so the two are dependent:
    // the reduction still reaches every trace brute force does.
    ExploreOptions brute;
    brute.sleepSets = false;
    brute.persistentSets = false;
    EXPECT_EQ(explore(s, brute).canonicalHashes, r.canonicalHashes);
}

// --- executor basics --------------------------------------------------

TEST(McExecutor, BusyBitBlocksCpuAccesses)
{
    std::vector<Scenario> g = guardedScenarios(PolicyConfig::cmu());
    Executor ex(g[0]); // dma-out-guarded: user0 + pager
    // Initially both threads can run.
    EXPECT_EQ(ex.enabled(), (std::vector<int>{0, 1}));
    ex.step(1); // pager: busy-acquire
    // The user thread's store targets the busy frame: blocked.
    EXPECT_EQ(ex.enabled(), (std::vector<int>{1}));
}

TEST(McExecutor, DmaStartSpawnsBeatThreadAndWaitBlocks)
{
    std::vector<Scenario> g = guardedScenarios(PolicyConfig::cmu());
    Executor ex(g[0]);
    ex.step(1); // busy-acquire
    ex.step(1); // pmap-dma-read
    EXPECT_EQ(ex.numThreads(), 2);
    ex.step(1); // dma-start-read: spawns the beat thread
    EXPECT_EQ(ex.numThreads(), 3);
    // The pager's next op is dma-wait: blocked until beats finish, so
    // only the beat thread can run.
    EXPECT_EQ(ex.enabled(), (std::vector<int>{2}));
    ex.step(2);
    EXPECT_EQ(ex.enabled(), (std::vector<int>{2}));
    ex.step(2); // second (final) beat
    // Transfer complete: the wait unblocks.
    EXPECT_EQ(ex.enabled(), (std::vector<int>{1}));
}

TEST(McRace, VectorClocksOrderForkJoinAndBusy)
{
    std::vector<Scenario> g = guardedScenarios(PolicyConfig::cmu());
    Executor ex(g[0]);
    // user store, then the full guarded pager sequence.
    ex.step(0);
    while (!ex.allFinished()) {
        const std::vector<int> en = ex.enabled();
        ASSERT_FALSE(en.empty());
        ex.step(en.back());
    }
    const std::vector<RaceReport> races = detectRaces(
        ex.history(), ex.numThreads(), CoherenceModel::of(g[0].mparams));
    EXPECT_TRUE(races.empty());
    EXPECT_EQ(ex.violationCount(), 0u);
}

// --- multiprocessor coherence -----------------------------------------

TEST(McCoherence, CrossCacheSharingBenignUnderMesi)
{
    const ScenarioResult r =
        explore(crossCacheSharing(PolicyConfig::cmu()), defaults());
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.executions, r.canonicalTraces);
    // The consumer's bus read snoops the producer's Modified copy:
    // the unordered pair is benign and no schedule reads stale data.
    EXPECT_EQ(r.reportedRaces(), 0u);
    EXPECT_GE(r.benignRaces, 1u);
    EXPECT_EQ(r.violatingRuns, 0u);
    EXPECT_TRUE(r.passed(crossCacheSharing(PolicyConfig::cmu()).expect));
}

TEST(McCoherence, NonCoherentSharingIsAConfirmedRace)
{
    const Scenario s = nonCoherentSharing(PolicyConfig::cmu());
    const ScenarioResult r = explore(s, defaults());
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.executions, r.canonicalTraces);
    // Without the bus the same program reads a stale line: the old
    // detector's unconditional CPU/CPU skip hid exactly this race.
    EXPECT_GE(r.reportedRaces(), 1u);
    EXPECT_EQ(r.benignRaces, 0u);
    EXPECT_GE(r.violatingRuns, 1u);
    EXPECT_GE(r.confirmedRaces, 1u);
    EXPECT_TRUE(r.replayConfirmed);
    EXPECT_LE(r.minimalCounterexample.size(), 2u);
    EXPECT_TRUE(r.passed(s.expect));
}

TEST(McCoherence, CoherenceCatalogExploredExactlyOncePerTrace)
{
    for (const Scenario &s : coherenceCatalog(PolicyConfig::cmu())) {
        const ScenarioResult r = explore(s, defaults());
        EXPECT_TRUE(r.exhausted) << s.name;
        EXPECT_EQ(r.executions, r.canonicalTraces) << s.name;
        EXPECT_TRUE(r.passed(s.expect)) << s.name;
    }
}

TEST(McCoherence, GuardedTwoCpuScenarioNeedsTheBus)
{
    // The 2-CPU guarded pageout choreography is race-free on the
    // coherent machine and stays race-free when the bus is removed —
    // its second CPU touches a different frame. The sharing pair is
    // the scenario that distinguishes the configs; check both ways.
    Scenario coherent = crossCacheSharing(PolicyConfig::cmu());
    Scenario bare = coherent;
    bare.mparams.cpuCoherence = MachineParams::CpuCoherence::None;
    const ScenarioResult rc = explore(coherent, defaults());
    const ScenarioResult rb = explore(bare, defaults());
    EXPECT_EQ(rc.reportedRaces(), 0u);
    EXPECT_GE(rb.reportedRaces(), 1u);
    EXPECT_EQ(rc.violatingRuns, 0u);
    EXPECT_GE(rb.violatingRuns, 1u);
}

} // namespace
} // namespace vic::mc
