/**
 * @file
 * ExperimentEngine: spec-order collection under parallel execution,
 * per-run failure isolation (a throwing run, a spec with no workload
 * factory), filter semantics, seed derivation, and
 * the JSON artifact's run members and determinism guarantees.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/experiment_engine.hh"
#include "experiment/json_artifact.hh"
#include "workload/contrived_alias.hh"

namespace vic
{
namespace
{

/** A cheap spec: the aligned contrived loop at @p writes stores. */
RunSpec
aliasSpec(const std::string &id, std::uint32_t writes,
          bool aligned = true)
{
    RunSpec spec;
    spec.id = id;
    spec.suite = "test";
    spec.make = [aligned, writes] {
        return std::make_unique<ContrivedAlias>(
            ContrivedAlias::Params{aligned, writes, false});
    };
    spec.policy = PolicyConfig::configF();
    return spec;
}

class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "throwing"; }
    void
    run(Kernel &) override
    {
        throw std::runtime_error("deliberate test failure");
    }
};

TEST(ExperimentEngine, CollectsOutcomesInSpecOrder)
{
    // Durations spread over two orders of magnitude and deliberately
    // decreasing, so under parallel execution later specs finish
    // first; collection must still be in spec order.
    std::vector<RunSpec> specs;
    const std::uint32_t writes[] = {20000, 5000, 1000, 200, 100, 50};
    for (std::size_t i = 0; i < std::size(writes); ++i) {
        specs.push_back(aliasSpec("run" + std::to_string(i),
                                  writes[i], /*aligned=*/false));
    }

    ExperimentEngine engine;
    std::vector<RunOutcome> outcomes = engine.run(specs, 4);

    ASSERT_EQ(outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(outcomes[i].id, specs[i].id);
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    }
    // More simulated work takes more simulated cycles, confirming the
    // slots really hold each spec's own run.
    for (std::size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_GT(outcomes[i - 1].result.cycles,
                  outcomes[i].result.cycles);
}

TEST(ExperimentEngine, ParallelMatchesSerial)
{
    std::vector<RunSpec> specs;
    for (int i = 0; i < 4; ++i)
        specs.push_back(aliasSpec("r" + std::to_string(i),
                                  500 * (i + 1), i % 2 == 0));

    ExperimentEngine engine;
    std::vector<RunOutcome> serial = engine.run(specs);
    std::vector<RunOutcome> parallel = engine.run(specs, 3);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles);
        EXPECT_EQ(serial[i].result.stats, parallel[i].result.stats);
        EXPECT_EQ(serial[i].effectiveSeed, parallel[i].effectiveSeed);
    }
}

TEST(ExperimentEngine, ThrowingRunFailsAloneWithoutTearingDownBatch)
{
    std::vector<RunSpec> specs;
    specs.push_back(aliasSpec("good0", 100));
    RunSpec bad;
    bad.id = "bad";
    bad.suite = "test";
    bad.make = [] { return std::make_unique<ThrowingWorkload>(); };
    bad.policy = PolicyConfig::configF();
    specs.push_back(std::move(bad));
    specs.push_back(aliasSpec("good1", 100));

    ExperimentEngine engine;
    std::vector<RunOutcome> outcomes = engine.run(specs, 2);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("deliberate test failure"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].ok);
    EXPECT_EQ(outcomes[0].result.cycles, outcomes[2].result.cycles);
}

TEST(ExperimentEngine, MissingFactoryFailsAloneWithoutTearingDownBatch)
{
    std::vector<RunSpec> specs;
    specs.push_back(aliasSpec("good0", 100));
    RunSpec bad = aliasSpec("no-factory", 100);
    bad.make = nullptr;
    specs.push_back(std::move(bad));
    specs.push_back(aliasSpec("good1", 100));

    ExperimentEngine engine;
    std::vector<RunOutcome> outcomes = engine.run(specs);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("no workload factory"),
              std::string::npos)
        << outcomes[1].error;
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;
    EXPECT_EQ(outcomes[0].result.cycles, outcomes[2].result.cycles);
}

TEST(ExperimentEngine, FilterSemantics)
{
    // Empty filter matches everything.
    EXPECT_TRUE(ExperimentEngine::matchesFilter("table1/afs/F", ""));
    // Substring match anywhere in the id.
    EXPECT_TRUE(
        ExperimentEngine::matchesFilter("table1/afs/F", "afs"));
    EXPECT_FALSE(
        ExperimentEngine::matchesFilter("table1/afs/F", "latex"));
    // Comma-separated alternatives: any may match.
    EXPECT_TRUE(ExperimentEngine::matchesFilter("table1/afs/F",
                                                "latex,afs"));
    EXPECT_FALSE(ExperimentEngine::matchesFilter("table1/afs/F",
                                                 "latex,db"));
}

TEST(ExperimentEngine, EffectiveSeedPreservesBaseForReplicaZero)
{
    // Replica 0 must run the workload's calibrated stream verbatim:
    // the paper's methodology is the SAME reference stream under
    // every policy.
    EXPECT_EQ(ExperimentEngine::effectiveSeed(0xaf5, 0), 0xaf5u);
    // Replicas get expanded, distinct, deterministic seeds.
    const std::uint64_t r1 = ExperimentEngine::effectiveSeed(0xaf5, 1);
    const std::uint64_t r2 = ExperimentEngine::effectiveSeed(0xaf5, 2);
    EXPECT_NE(r1, 0xaf5u);
    EXPECT_NE(r1, r2);
    EXPECT_EQ(r1, ExperimentEngine::effectiveSeed(0xaf5, 1));
}

TEST(ExperimentEngine, SecondsAgreeWithCycleCounter)
{
    std::vector<RunSpec> specs{aliasSpec("r", 300)};
    ExperimentEngine engine;
    std::vector<RunOutcome> outcomes = engine.run(specs);
    ASSERT_TRUE(outcomes[0].ok);
    const RunResult &r = outcomes[0].result;
    EXPECT_GT(r.cycles, 0u);
    // seconds is derived from the SAME clock read as cycles — never
    // a separately sampled (potentially stale) snapshot.
    EXPECT_DOUBLE_EQ(r.seconds, double(r.cycles) /
                                    double(specs[0].machine.clockHz));
}

TEST(RunResult, WriteBacksSumEveryDataCache)
{
    RunResult r;
    r.stats["dcache.write_backs"] = 5;
    r.stats["dcache0.write_backs"] = 3;
    r.stats["dcache1.write_backs"] = 4;
    r.stats["icache.write_backs"] = 100;

    // The uniprocessor and per-CPU data caches, each once; the
    // instruction cache is not a data cache.
    EXPECT_EQ(r.writeBacks(), 12u);
}

TEST(JsonArtifact, RunResultJsonHoldsEveryMember)
{
    RunResult r;
    r.workload = "afs-bench";
    r.policy = "F (+will overwrite)";
    r.cycles = 123456789;
    r.seconds = double(r.cycles) / 50e6;
    r.oracleChecked = 42;
    r.oracleViolations = 0;
    r.stats["dcache.hits"] = 17;
    r.stats["pmap.d_page_flushes"] = 3;
    r.traceTail = {"ev1", "ev2"};

    // Read back from its text, as `vic_bench --diff` reads an artifact.
    const JsonValue j = JsonValue::parse(runResultToJson(r).dump(2));
    std::vector<std::string> keys;
    for (const auto &[key, value] : j.members())
        keys.push_back(key);
    ASSERT_EQ(keys, (std::vector<std::string>{"workload", "policy",
                                              "cycles", "seconds",
                                              "oracle", "stats",
                                              "trace"}));

    EXPECT_EQ(j.find("workload")->asString(), r.workload);
    EXPECT_EQ(j.find("policy")->asString(), r.policy);
    EXPECT_EQ(j.find("cycles")->asU64(), r.cycles);
    EXPECT_DOUBLE_EQ(j.find("seconds")->asDouble(), r.seconds);

    const JsonValue &oracle = *j.find("oracle");
    ASSERT_NE(oracle.find("checked"), nullptr);
    ASSERT_NE(oracle.find("violations"), nullptr);
    EXPECT_EQ(oracle.find("checked")->asU64(), r.oracleChecked);
    EXPECT_EQ(oracle.find("violations")->asU64(), r.oracleViolations);

    std::map<std::string, std::uint64_t> stats;
    for (const auto &[name, value] : j.find("stats")->members())
        stats[name] = value.asU64();
    EXPECT_EQ(stats, r.stats);

    std::vector<std::string> trace;
    for (const JsonValue &line : j.find("trace")->items())
        trace.push_back(line.asString());
    EXPECT_EQ(trace, r.traceTail);
}

TEST(JsonArtifact, SerialAndParallelArtifactsAreEquivalent)
{
    std::vector<RunSpec> specs;
    for (int i = 0; i < 5; ++i)
        specs.push_back(aliasSpec("r" + std::to_string(i),
                                  200 * (5 - i), i % 2 == 0));

    ExperimentEngine engine;

    ArtifactMeta meta_serial;
    meta_serial.jobs = 1;
    meta_serial.wallSeconds = 0.25;
    ArtifactMeta meta_parallel;
    meta_parallel.jobs = 4;
    meta_parallel.wallSeconds = 0.75;

    const std::string a =
        renderArtifact(meta_serial, engine.run(specs));
    const std::string b =
        renderArtifact(meta_parallel, engine.run(specs, 4));

    std::string why;
    EXPECT_TRUE(artifactsEquivalent(a, b, &why)) << why;

    // And a real difference IS reported.
    std::vector<RunOutcome> mutated = engine.run(specs);
    mutated[2].result.stats["dcache.hits"] += 1;
    const std::string c = renderArtifact(meta_serial, mutated);
    EXPECT_FALSE(artifactsEquivalent(a, c, &why));
    EXPECT_FALSE(why.empty());
}

} // anonymous namespace
} // namespace vic
