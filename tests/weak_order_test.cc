/**
 * @file
 * Tests for weak store ordering in the interleaving model checker:
 * SC-mode bit-equivalence with the pre-relaxation explorer, clean
 * guarded choreographies under per-CPU store buffers, the
 * missing-fence exemplar whose weak-order window only relaxed
 * exploration can catch (with an oracle-confirmed minimal schedule),
 * DPOR soundness/optimality over the drain-extended alphabet,
 * deterministic schedule fuzzing, and the counters a v4 verify-report
 * scenario entry carries.
 */

#include <gtest/gtest.h>

#include "common/json_writer.hh"
#include "core/policy_config.hh"
#include "mc/explorer.hh"
#include "mc/scenario.hh"
#include "verify/mc_report.hh"

namespace vic::mc
{
namespace
{

ExploreOptions
defaults()
{
    return {};
}

ExploreOptions
brute()
{
    ExploreOptions opt;
    opt.sleepSets = false;
    opt.persistentSets = false;
    return opt;
}

// --- SC bit-equivalence -----------------------------------------------

TEST(WeakOrder, ScModeMatchesPreRelaxationExplorer)
{
    // The store-buffer machinery must be invisible under SC: the same
    // execution counts, trace counts, and race verdicts the explorer
    // produced before the relaxation existed. (Race counts here are
    // the dedup-corrected ones: RaceReport::key() is
    // order-insensitive, so one unordered pair explored in both
    // schedule orders is one race, not two.)
    struct Baseline
    {
        const char *name;
        std::uint64_t executions;
        std::uint64_t maxDepth;
        std::uint64_t reported;
        std::uint64_t benign;
        std::uint64_t violatingRuns;
    };
    const Baseline baselines[] = {
        {"dma-out-guarded", 3, 9, 0, 0, 0},
        {"dma-in-guarded", 3, 9, 0, 0, 0},
        {"pageout-guarded", 18, 12, 0, 0, 0},
        {"flush-after-start", 12, 6, 1, 0, 3},
        {"lost-write-back", 3, 5, 1, 0, 1},
        {"snooping-unguarded", 3, 5, 0, 1, 0},
    };
    const std::vector<Scenario> catalog =
        standardCatalog(PolicyConfig::cmu());
    ASSERT_EQ(catalog.size(), std::size(baselines));
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        ASSERT_EQ(catalog[i].name, baselines[i].name);
        EXPECT_EQ(catalog[i].memoryOrder, MemoryOrder::SC);
        const ScenarioResult r = explore(catalog[i], defaults());
        EXPECT_TRUE(r.exhausted) << catalog[i].name;
        EXPECT_EQ(r.executions, baselines[i].executions)
            << catalog[i].name;
        EXPECT_EQ(r.canonicalTraces, baselines[i].executions)
            << catalog[i].name;
        EXPECT_EQ(r.maxDepth, baselines[i].maxDepth)
            << catalog[i].name;
        EXPECT_EQ(r.reportedRaces(), baselines[i].reported)
            << catalog[i].name;
        EXPECT_EQ(r.benignRaces, baselines[i].benign)
            << catalog[i].name;
        EXPECT_EQ(r.violatingRuns, baselines[i].violatingRuns)
            << catalog[i].name;
        // SC runs buffer nothing, so no drain can pair into a race.
        EXPECT_EQ(r.weakWindowRaces, 0u) << catalog[i].name;
    }
}

// --- guarded choreography under weak order -----------------------------

TEST(WeakOrder, GuardedScenariosStayCleanUnderStoreBuffers)
{
    // The paper's guarded choreographies order DMA against CPU stores
    // via the busy bit; the acquire point forces drains, so relaxing
    // store order must add schedules but no races or lost data.
    for (const Scenario &s :
         weakGuardedScenarios(PolicyConfig::cmu())) {
        const ScenarioResult r = explore(s, defaults());
        EXPECT_TRUE(r.exhausted) << s.name;
        EXPECT_FALSE(r.deadlock) << s.name;
        EXPECT_EQ(r.executions, r.canonicalTraces) << s.name;
        EXPECT_EQ(r.reportedRaces(), 0u) << s.name;
        EXPECT_EQ(r.weakWindowRaces, 0u) << s.name;
        EXPECT_EQ(r.violatingRuns, 0u) << s.name;
        EXPECT_TRUE(r.passed(s.expect)) << s.name;
    }
}

TEST(WeakOrder, WeakGuardedExploresMoreSchedulesThanSc)
{
    // Sanity that the relaxation actually enlarges the space: the
    // drain events are separately schedulable, so the weak run of a
    // guarded scenario has strictly more inequivalent traces.
    const PolicyConfig policy = PolicyConfig::cmu();
    const std::vector<Scenario> sc = standardCatalog(policy);
    const std::vector<Scenario> weak = weakGuardedScenarios(policy);
    ASSERT_FALSE(weak.empty());
    const ScenarioResult scR = explore(sc[0], defaults());
    const ScenarioResult weakR = explore(weak[0], defaults());
    EXPECT_GT(weakR.canonicalTraces, scR.canonicalTraces);
    EXPECT_GT(weakR.maxDepth, scR.maxDepth);
}

// --- the missing-fence exemplar ---------------------------------------

TEST(WeakOrder, MissingFenceCaughtOnlyUnderWeakOrder)
{
    const PolicyConfig policy = PolicyConfig::cmu();

    // Under SC the store is globally visible before the DMA read
    // starts: a single schedule, no race, no violation.
    const ScenarioResult sc = explore(
        missingFenceExemplar(policy, MemoryOrder::SC), defaults());
    EXPECT_TRUE(sc.exhausted);
    EXPECT_EQ(sc.executions, 1u);
    EXPECT_EQ(sc.reportedRaces(), 0u);
    EXPECT_EQ(sc.violatingRuns, 0u);

    // Under weak store order the undrained store can overlap the DMA
    // read: a weak-order window race with demonstrable data loss.
    const Scenario exemplar = missingFenceExemplar(policy);
    const ScenarioResult weak = explore(exemplar, defaults());
    EXPECT_TRUE(weak.exhausted);
    EXPECT_GT(weak.reportedRaces(), 0u);
    EXPECT_GT(weak.weakWindowRaces, 0u);
    EXPECT_GT(weak.confirmedRaces, 0u);
    EXPECT_GT(weak.violatingRuns, 0u);
    EXPECT_TRUE(weak.passed(exemplar.expect));

    // The minimal counterexample is replayable and oracle-confirmed.
    ASSERT_FALSE(weak.minimalCounterexampleLabels.empty());
    EXPECT_LE(weak.minimalCounterexampleLabels.size(), 5u);
    EXPECT_TRUE(weak.replayConfirmed);
}

TEST(WeakOrder, FenceClosesTheWindow)
{
    // Inserting one fence after the store restores correctness: the
    // fence's acquire edge from the drain clock removes the race.
    const Scenario fenced = fencedVariant(PolicyConfig::cmu());
    const ScenarioResult r = explore(fenced, defaults());
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.deadlock);
    EXPECT_EQ(r.reportedRaces(), 0u);
    EXPECT_EQ(r.weakWindowRaces, 0u);
    EXPECT_EQ(r.violatingRuns, 0u);
    EXPECT_TRUE(r.passed(fenced.expect));
}

// --- DPOR invariants over the drain alphabet ---------------------------

TEST(WeakOrder, DporRemainsSoundAndOptimalWithDrains)
{
    // Exactly-once per trace, and no trace the brute enumeration
    // reaches is missed — now with drain conflicts in the dependence
    // relation.
    for (const Scenario &s : weakCatalog(PolicyConfig::cmu())) {
        const ScenarioResult d = explore(s, defaults());
        const ScenarioResult b = explore(s, brute());
        EXPECT_TRUE(d.exhausted) << s.name;
        EXPECT_TRUE(b.exhausted) << s.name;
        EXPECT_EQ(d.executions, d.canonicalTraces) << s.name;
        EXPECT_EQ(b.canonicalTraces, d.canonicalTraces) << s.name;
        // End states are a lower bound, not an equality: store values
        // are stamped in execution order, so equivalent traces can
        // still differ in memory content under brute enumeration.
        EXPECT_LE(d.distinctEndStates, b.distinctEndStates) << s.name;
        EXPECT_EQ(b.reportedRaces(), d.reportedRaces()) << s.name;
        EXPECT_EQ(b.weakWindowRaces > 0, d.weakWindowRaces > 0)
            << s.name;
    }
}

// --- deterministic schedule fuzzing ------------------------------------

void
expectFuzzEqual(const FuzzResult &a, const FuzzResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.samples, b.samples) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.maxDepth, b.maxDepth) << what;
    EXPECT_EQ(a.canonicalTraces, b.canonicalTraces) << what;
    EXPECT_EQ(a.distinctEndStates, b.distinctEndStates) << what;
    EXPECT_EQ(a.newTraces, b.newTraces) << what;
    EXPECT_EQ(a.races.size(), b.races.size()) << what;
    EXPECT_EQ(a.violatingRuns, b.violatingRuns) << what;
    EXPECT_EQ(a.minimalCounterexample, b.minimalCounterexample)
        << what;
}

TEST(WeakOrder, FuzzingIsDeterministicForAFixedSeed)
{
    const Scenario s = missingFenceExemplar(PolicyConfig::cmu());
    FuzzOptions opt;
    opt.samples = 100;
    opt.seed = 7;
    const FuzzResult a = fuzzSchedules(s, opt, 0, {});
    const FuzzResult b = fuzzSchedules(s, opt, 0, {});
    expectFuzzEqual(a, b, s.name);

    // A different seed samples a different mix of schedules (the
    // stream really depends on the seed). Every maximal schedule of
    // this scenario has the same length, so the discriminator is how
    // often the sampled order hit the unfenced window.
    opt.seed = 8;
    const FuzzResult c = fuzzSchedules(s, opt, 0, {});
    EXPECT_NE(a.violatingRuns, c.violatingRuns);
}

TEST(WeakOrder, FuzzingIsIndependentOfJobCount)
{
    const std::vector<Scenario> catalog =
        weakCatalog(PolicyConfig::cmu());
    FuzzOptions opt;
    opt.samples = 50;
    opt.seed = 42;
    const std::vector<FuzzResult> serial =
        fuzzMany(catalog, opt, {}, 1);
    const std::vector<FuzzResult> parallel =
        fuzzMany(catalog, opt, {}, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectFuzzEqual(serial[i], parallel[i], catalog[i].name);
}

TEST(WeakOrder, FuzzingFindsTheMissingFenceViolation)
{
    const Scenario s = missingFenceExemplar(PolicyConfig::cmu());
    FuzzOptions opt;
    opt.samples = 200;
    opt.seed = 42;
    const FuzzResult r = fuzzSchedules(s, opt, 0, {});
    EXPECT_GT(r.violatingRuns, 0u);
    EXPECT_GT(r.weakWindowRaces, 0u);
    ASSERT_FALSE(r.minimalCounterexampleLabels.empty());
    EXPECT_TRUE(r.replayConfirmed);
}

TEST(WeakOrder, FuzzCoverageIsSubsetOfExhaustiveExploration)
{
    // DPOR exhausted the space, so random sampling can only
    // rediscover known traces: newTraces must be zero.
    for (const Scenario &s : weakCatalog(PolicyConfig::cmu())) {
        const ScenarioResult d = explore(s, defaults());
        ASSERT_TRUE(d.exhausted) << s.name;
        FuzzOptions opt;
        opt.samples = 100;
        opt.seed = 42;
        const FuzzResult f =
            fuzzSchedules(s, opt, 0, d.canonicalHashes);
        EXPECT_EQ(f.newTraces, 0u) << s.name;
        EXPECT_LE(f.canonicalTraces, d.canonicalTraces) << s.name;
    }
}

TEST(WeakOrder, FuzzCensusIsPinned)
{
    // The fuzzer's census of the weak catalog under CMU at seed 42,
    // 200 samples per scenario, against DPOR's trace hashes: the
    // numbers the golden weak-order report holds for this policy.
    struct Pinned
    {
        const char *name;
        std::uint64_t steps;
        std::uint64_t maxDepth;
        std::uint64_t canonicalTraces;
        std::uint64_t distinctEndStates;
        std::size_t races;
        std::uint64_t weakWindow;
        std::uint64_t violatingRuns;
        std::vector<std::string> counterexample;
    };
    const Pinned pinned[] = {
        {"dma-out-guarded-weak", 2000, 10, 5, 3, 0, 0, 0, {}},
        {"dma-in-guarded-weak", 2000, 10, 5, 3, 0, 0, 0, {}},
        {"pageout-guarded-weak", 2800, 14, 26, 8, 0, 0, 0, {}},
        {"dma-out-missing-fence", 1200, 6, 3, 2, 1, 1, 116,
         {"writer:store A", "writer:pmap-dma-read",
          "writer:dma-start-read", "writer.dma1:beat#0"}},
        {"dma-out-fenced", 1400, 7, 1, 1, 0, 0, 0, {}},
    };
    const std::vector<Scenario> catalog =
        weakCatalog(PolicyConfig::cmu());
    ASSERT_EQ(catalog.size(), std::size(pinned));
    FuzzOptions opt;
    opt.samples = 200;
    opt.seed = 42;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const Pinned &p = pinned[i];
        ASSERT_EQ(catalog[i].name, p.name);
        const ScenarioResult d = explore(catalog[i], defaults());
        const FuzzResult f =
            fuzzSchedules(catalog[i], opt, i, d.canonicalHashes);
        EXPECT_EQ(f.samples, 200u) << p.name;
        EXPECT_EQ(f.steps, p.steps) << p.name;
        EXPECT_EQ(f.maxDepth, p.maxDepth) << p.name;
        EXPECT_EQ(f.deadlockRuns, 0u) << p.name;
        EXPECT_EQ(f.canonicalTraces, p.canonicalTraces) << p.name;
        EXPECT_EQ(f.distinctEndStates, p.distinctEndStates) << p.name;
        EXPECT_EQ(f.newTraces, 0u) << p.name;
        EXPECT_EQ(f.races.size(), p.races) << p.name;
        EXPECT_EQ(f.benignRaces, 0u) << p.name;
        EXPECT_EQ(f.weakWindowRaces, p.weakWindow) << p.name;
        EXPECT_EQ(f.violatingRuns, p.violatingRuns) << p.name;
        EXPECT_EQ(f.minimalCounterexampleLabels, p.counterexample)
            << p.name;
        EXPECT_EQ(f.replayConfirmed, !p.counterexample.empty())
            << p.name;
    }

    // Against no baseline every sampled trace is new.
    const FuzzResult bare = fuzzSchedules(catalog[2], opt, 2, {});
    EXPECT_EQ(bare.newTraces, bare.canonicalTraces);
    EXPECT_EQ(bare.newTraces, 26u);
}

// --- report schema v4 ----------------------------------------------------

TEST(WeakOrder, ReportV4EntryCarriesTheVerdictCounters)
{
    const Scenario s = missingFenceExemplar(PolicyConfig::cmu());
    const ScenarioResult r = explore(s, defaults());
    FuzzOptions opt;
    opt.samples = 50;
    opt.seed = 42;
    const FuzzResult f = fuzzSchedules(s, opt, 0, r.canonicalHashes);

    // Read back from its text, as a consumer of the artifact would.
    const JsonValue js = JsonValue::parse(
        verify::scenarioResultJson(r, r.passed(s.expect)).dump(2));
    const JsonValue jf =
        JsonValue::parse(verify::fuzzResultJson(f, true).dump(2));
    for (const char *key :
         {"scenario", "memoryOrder", "executions", "canonicalTraces",
          "violatingRuns", "weakWindowRaces", "races", "reportedRaces",
          "passed"})
        ASSERT_NE(js.find(key), nullptr) << key;
    for (const char *key :
         {"samples", "canonicalTraces", "newTraces", "passed"})
        ASSERT_NE(jf.find(key), nullptr) << key;

    EXPECT_EQ(js.find("scenario")->asString(), s.name);
    EXPECT_EQ(js.find("memoryOrder")->asString(), "weak");
    EXPECT_EQ(js.find("executions")->asU64(), r.executions);
    EXPECT_EQ(js.find("canonicalTraces")->asU64(), r.canonicalTraces);
    EXPECT_EQ(js.find("violatingRuns")->asU64(), r.violatingRuns);
    EXPECT_EQ(js.find("weakWindowRaces")->asU64(), r.weakWindowRaces);
    EXPECT_EQ(js.find("races")->items().size(), r.races.size());
    EXPECT_EQ(js.find("reportedRaces")->asU64(), r.reportedRaces());
    EXPECT_TRUE(js.find("passed")->asBool());

    EXPECT_EQ(jf.find("samples")->asU64(), f.samples);
    EXPECT_EQ(jf.find("canonicalTraces")->asU64(), f.canonicalTraces);
    EXPECT_EQ(jf.find("newTraces")->asU64(), f.newTraces);
    EXPECT_TRUE(jf.find("passed")->asBool());
}

} // namespace
} // namespace vic::mc
