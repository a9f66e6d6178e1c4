/**
 * @file
 * Tests for the consistency oracle — including the non-vacuity
 * requirement: a machine run under the deliberately broken policy
 * MUST produce violations, proving the simulator really reproduces
 * the paper's failure modes and the oracle really detects them.
 */

#include <gtest/gtest.h>

#include "core/policy_config.hh"
#include "oracle/consistency_oracle.hh"
#include "workload/contrived_alias.hh"
#include "workload/runner.hh"

namespace vic
{
namespace
{

TEST(OracleTest, CleanUntilMismatch)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 5);
    o.cpuLoad(PhysAddr(0x10), 5);
    EXPECT_TRUE(o.clean());
    EXPECT_EQ(o.checkedCount(), 1u);

    o.cpuLoad(PhysAddr(0x10), 6);
    EXPECT_FALSE(o.clean());
    ASSERT_EQ(o.violations().size(), 1u);
    EXPECT_EQ(o.violations()[0].expected, 5u);
    EXPECT_EQ(o.violations()[0].observed, 6u);
    EXPECT_EQ(o.violations()[0].kind, "cpu-load");
}

TEST(OracleTest, UnwrittenWordsAreNotChecked)
{
    ConsistencyOracle o(4096);
    o.cpuLoad(PhysAddr(0x20), 12345);  // garbage, but never written
    EXPECT_TRUE(o.clean());
}

TEST(OracleTest, DmaWriteDefinesNewestValue)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 1);
    o.dmaWrite(PhysAddr(0x10), 2);
    o.cpuLoad(PhysAddr(0x10), 1);  // shadowed by stale cache copy
    EXPECT_FALSE(o.clean());
    EXPECT_EQ(o.violations()[0].expected, 2u);
}

TEST(OracleTest, DmaReadChecked)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 9);
    o.dmaRead(PhysAddr(0x10), 0);  // device read stale memory
    EXPECT_FALSE(o.clean());
    EXPECT_EQ(o.violations()[0].kind, "dma-read");
}

TEST(OracleTest, IFetchChecked)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 0x4e71);
    o.cpuIFetch(PhysAddr(0x10), 0);
    EXPECT_FALSE(o.clean());
    EXPECT_EQ(o.violations()[0].kind, "cpu-ifetch");
}

TEST(OracleTest, ViolationCountKeepsGrowingBeyondCap)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 1);
    for (int i = 0; i < 100; ++i)
        o.cpuLoad(PhysAddr(0x10), 2);
    EXPECT_EQ(o.violationCount(), 100u);
    EXPECT_LE(o.violations().size(), 64u);
}

TEST(OracleTest, ResetForgetsEverything)
{
    ConsistencyOracle o(4096);
    o.cpuStore(PhysAddr(0x10), 1);
    o.cpuLoad(PhysAddr(0x10), 2);
    o.reset();
    EXPECT_TRUE(o.clean());
    EXPECT_EQ(o.checkedCount(), 0u);
    o.cpuLoad(PhysAddr(0x10), 99);  // undefined again after reset
    EXPECT_TRUE(o.clean());
}

TEST(OracleTest, UnwrittenShadowIsNeverCompared)
{
    // The shadow starts uninitialized and reset() leaves it as it is:
    // only the defined bits say which words hold a value. Check both
    // ends of memory on a fresh and on a reset oracle.
    const auto exercise = [](ConsistencyOracle &o, PhysAddr pa) {
        o.cpuLoad(pa, 0xdeadbeef);  // never written: nothing to compare
        EXPECT_TRUE(o.clean());
        o.cpuStore(pa, 7);
        o.cpuLoad(pa, 7);
        o.cpuLoad(pa, 8);           // stale
        ASSERT_EQ(o.violationCount(), 1u);
        EXPECT_EQ(o.violations()[0].expected, 7u);
        EXPECT_EQ(o.checkedCount(), 3u);
    };
    for (const PhysAddr pa : {PhysAddr(0), PhysAddr(4092)}) {
        ConsistencyOracle o(4096);
        exercise(o, pa);
        o.reset();  // the shadow still holds 7 at pa
        exercise(o, pa);
    }
}

TEST(OracleDeathTest, RejectsUnalignedAndOutOfRange)
{
    ConsistencyOracle o(4096);
    EXPECT_DEATH(o.cpuStore(PhysAddr(2), 0), "unaligned");
    EXPECT_DEATH(o.cpuStore(PhysAddr(4096), 0), "out of range");
}

// ---------------------------------------------------------------------
// Non-vacuity: the broken policy must trip the oracle.
// ---------------------------------------------------------------------

TEST(OracleNonVacuityTest, BrokenPolicyViolatesOnUnalignedAliases)
{
    ContrivedAlias wl({false, 2000, /*verifyReads=*/true});
    RunResult r = runWorkload(wl, PolicyConfig::broken());
    EXPECT_GT(r.oracleViolations, 0u)
        << "the simulator failed to reproduce stale reads under an "
           "unmanaged virtually indexed cache";
}

TEST(OracleNonVacuityTest, BrokenPolicyIsFineWhenAliasesAlign)
{
    // Aligned aliases are harmless even with no management at all —
    // the paper's central observation about alignment.
    ContrivedAlias wl({true, 2000, /*verifyReads=*/true});
    RunResult r = runWorkload(wl, PolicyConfig::broken());
    EXPECT_EQ(r.oracleViolations, 0u);
}

TEST(OracleNonVacuityTest, CorrectPoliciesAreCleanOnSameWorkload)
{
    for (const auto &cfg :
         {PolicyConfig::configA(), PolicyConfig::configF()}) {
        ContrivedAlias wl({false, 2000, /*verifyReads=*/true});
        RunResult r = runWorkload(wl, cfg);
        EXPECT_EQ(r.oracleViolations, 0u) << cfg.name;
        EXPECT_GT(r.oracleChecked, 0u);
    }
}

} // anonymous namespace
} // namespace vic
