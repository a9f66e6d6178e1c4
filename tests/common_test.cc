/** @file Unit tests for the common support library. */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "common/bitvector.hh"
#include "common/event_log.hh"
#include "common/json_writer.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace vic
{
namespace
{

TEST(BitVectorTest, StartsClear)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    EXPECT_EQ(v.count(), 0u);
    EXPECT_EQ(v.findFirst(), 130u);
    EXPECT_EQ(v.findFirstClear(), 0u);
}

TEST(BitVectorTest, SetResetTest)
{
    BitVector v(70);
    v.set(0);
    v.set(63);
    v.set(64);
    v.set(69);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(63));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(69));
    EXPECT_FALSE(v.test(1));
    EXPECT_EQ(v.count(), 4u);
    v.reset(63);
    EXPECT_FALSE(v.test(63));
    EXPECT_EQ(v.count(), 3u);
}

TEST(BitVectorTest, FindFirstCrossesWordBoundary)
{
    BitVector v(130);
    v.set(128);
    EXPECT_EQ(v.findFirst(), 128u);
    v.set(65);
    EXPECT_EQ(v.findFirst(), 65u);
    v.set(64);
    EXPECT_EQ(v.findFirst(), 64u);
    v.set(63);
    EXPECT_EQ(v.findFirst(), 63u);
}

TEST(BitVectorTest, AnyAndCountSeeEveryWord)
{
    // 130 bits: two full words and a 2-bit tail.
    for (std::uint32_t bit : {0u, 63u, 64u, 127u, 128u, 129u}) {
        BitVector v(130);
        v.set(bit);
        EXPECT_TRUE(v.any()) << bit;
        EXPECT_EQ(v.count(), 1u) << bit;
    }
    BitVector v(130);
    for (std::uint32_t bit : {0u, 63u, 64u, 127u, 128u, 129u})
        v.set(bit);
    EXPECT_EQ(v.count(), 6u);
    v.reset(63);
    v.reset(128);
    EXPECT_EQ(v.count(), 4u);
}

TEST(BitVectorTest, IntersectsComparesEveryWord)
{
    BitVector a(130), b(130);
    EXPECT_FALSE(a.intersects(b));
    // Disjoint bits on both sides of each word boundary.
    a.set(63);
    b.set(64);
    a.set(128);
    b.set(127);
    b.set(129);
    EXPECT_FALSE(a.intersects(b));
    EXPECT_FALSE(b.intersects(a));
    for (std::uint32_t bit : {0u, 63u, 64u, 127u, 128u, 129u}) {
        BitVector x(130), y(130);
        x.set(bit);
        y.set(bit);
        y.set(bit == 0 ? 1 : bit - 1);
        EXPECT_TRUE(x.intersects(y)) << bit;
        EXPECT_TRUE(y.intersects(x)) << bit;
    }
}

TEST(BitVectorDeathTest, RejectsOutOfRangeIndexAndSizeMismatch)
{
    BitVector v(130);
    EXPECT_DEATH(v.set(130), "bit index 130 out of range \\(size 130\\)");
    EXPECT_DEATH((void)v.test(200), "bit index 200 out of range");
    BitVector w(64);
    EXPECT_DEATH((void)v.intersects(w), "size mismatch \\(130 vs 64\\)");
    EXPECT_DEATH(v.orWith(w), "size mismatch");
}

TEST(BitVectorTest, FindFirstClearSkipsSetBits)
{
    BitVector v(4);
    v.set(0);
    v.set(1);
    EXPECT_EQ(v.findFirstClear(), 2u);
    v.set(2);
    v.set(3);
    EXPECT_EQ(v.findFirstClear(), 4u);
}

TEST(BitVectorTest, OrWithMergesBits)
{
    BitVector a(100), b(100);
    a.set(1);
    b.set(70);
    a.orWith(b);
    EXPECT_TRUE(a.test(1));
    EXPECT_TRUE(a.test(70));
    EXPECT_FALSE(b.test(1));  // source untouched
}

TEST(BitVectorTest, ClearAllResets)
{
    BitVector v(100);
    v.set(5);
    v.set(99);
    v.clearAll();
    EXPECT_TRUE(v.none());
}

TEST(BitVectorTest, ExactlyOne)
{
    BitVector v(16);
    EXPECT_FALSE(v.exactlyOne());
    v.set(7);
    EXPECT_TRUE(v.exactlyOne());
    v.set(8);
    EXPECT_FALSE(v.exactlyOne());

    // Across words: one bit in the last word, then one in each of two.
    BitVector w(130);
    w.set(129);
    EXPECT_TRUE(w.exactlyOne());
    w.set(3);
    EXPECT_FALSE(w.exactlyOne());
    w.reset(129);
    EXPECT_TRUE(w.exactlyOne());
}

TEST(BitVectorTest, EqualityComparesContent)
{
    BitVector a(16), b(16);
    a.set(3);
    EXPECT_NE(a, b);
    b.set(3);
    EXPECT_EQ(a, b);
}

TEST(RandomTest, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RandomTest, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ |= a.next64() != b.next64();
    EXPECT_TRUE(differ);
}

TEST(RandomTest, BelowRespectsBound)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RandomTest, BetweenIsInclusive)
{
    Random r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.between(3, 5));
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_TRUE(seen.count(3));
    EXPECT_TRUE(seen.count(5));
}

TEST(RandomTest, RealInUnitInterval)
{
    Random r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RandomTest, ChanceExtremes)
{
    Random r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0, 10));
        EXPECT_TRUE(r.chance(10, 10));
    }
}

TEST(StatsTest, CountersStartAtZero)
{
    StatSet s;
    EXPECT_EQ(s.counter("x").value(), 0u);
    EXPECT_EQ(s.value("never_created"), 0u);
}

TEST(StatsTest, IncrementOperators)
{
    StatSet s;
    Counter &c = s.counter("c");
    ++c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(s.value("c"), 7u);
}

TEST(StatsTest, SnapshotIsOrderedByName)
{
    StatSet s;
    Counter &z = s.counter("z");
    s.counter("a") += 3;
    // Later registrations leave earlier references valid.
    for (int i = 0; i < 100; ++i)
        s.counter(format("m.%d", i));
    z += 4;
    const auto snap = s.snapshot();
    ASSERT_EQ(snap.size(), 102u);
    EXPECT_EQ(snap.begin()->first, "a");
    EXPECT_EQ(snap.begin()->second, 3u);
    EXPECT_EQ(snap.rbegin()->first, "z");
    EXPECT_EQ(snap.rbegin()->second, 4u);
}

TEST(StatsDeathTest, SecondRegistrationPanicsNamingIt)
{
    StatSet s;
    s.counter("tlb.hits");
    EXPECT_DEATH(s.counter("tlb.hits"),
                 "counter 'tlb.hits' registered twice");
}

TEST(StatsDeathTest, BadNamePanicsNamingIt)
{
    StatSet s;
    EXPECT_DEATH(s.counter("OS.BadName"), "'OS.BadName' is not");
    EXPECT_DEATH(s.counter("dcache0 reads"), "'dcache0 reads' is not");
    EXPECT_DEATH(s.counter("pmap.d-flush"), "'pmap.d-flush' is not");
    EXPECT_DEATH(s.counter(""), "'' is not");
}

TEST(JsonTest, DeepNestingThrowsInsteadOfOverflowingTheStack)
{
    // The parser recurses per level: 100000 levels overflow the
    // stack unless nesting is bounded.
    const std::size_t deep = 100000;
    try {
        JsonValue::parse(std::string(deep, '[') + std::string(deep, ']'));
        ADD_FAILURE() << "a 100000-deep array parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than 64"),
                  std::string::npos)
            << e.what();
    }
    // 64 levels, far beyond any document the repo writes, still parse.
    const JsonValue ok =
        JsonValue::parse(std::string(64, '[') + std::string(64, ']'));
    EXPECT_EQ(ok.items().size(), 1u);
}

TEST(TableTest, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.row();
    t.cell(std::string("x"));
    t.cell(std::uint64_t(42));
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, BlankAndFloatCells)
{
    Table t({"a", "b"});
    t.row();
    t.blank();
    t.cell(3.14159, 2);
    std::string out = t.render();
    EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(ProtectionTest, NamedConstructors)
{
    EXPECT_TRUE(Protection::none().isNone());
    EXPECT_TRUE(Protection::readOnly().read);
    EXPECT_FALSE(Protection::readOnly().write);
    EXPECT_TRUE(Protection::readWrite().write);
    EXPECT_TRUE(Protection::readExecute().execute);
    EXPECT_FALSE(Protection::readExecute().write);
    Protection all = Protection::all();
    EXPECT_TRUE(all.read && all.write && all.execute);
}

TEST(ProtectionTest, IntersectIsPairwiseAnd)
{
    Protection p = Protection::readWrite().intersect(
        Protection::readExecute());
    EXPECT_TRUE(p.read);
    EXPECT_FALSE(p.write);
    EXPECT_FALSE(p.execute);
}

TEST(ProtectionTest, NameFormat)
{
    EXPECT_EQ(protectionName(Protection::none()), "---");
    EXPECT_EQ(protectionName(Protection::readWrite()), "rw-");
    EXPECT_EQ(protectionName(Protection::readExecute()), "r-x");
}

TEST(EventLogTest, DisabledByDefault)
{
    EventLog log;
    EXPECT_FALSE(log.enabled());
    log.log("ignored");
    EXPECT_EQ(log.totalLogged(), 0u);
    EXPECT_TRUE(log.recent(10).empty());
}

TEST(EventLogTest, KeepsMostRecentInOrder)
{
    EventLog log;
    log.enable(3);
    for (int i = 0; i < 5; ++i)
        log.log("e" + std::to_string(i));
    EXPECT_EQ(log.totalLogged(), 5u);
    auto r = log.recent(10);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0], "e2");
    EXPECT_EQ(r[2], "e4");
    auto r2 = log.recent(2);
    ASSERT_EQ(r2.size(), 2u);
    EXPECT_EQ(r2[0], "e3");
}

TEST(EventLogTest, RecentBeforeWrap)
{
    EventLog log;
    log.enable(8);
    log.log("a");
    log.log("b");
    auto r = log.recent(8);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0], "a");
    EXPECT_EQ(r[1], "b");
}

TEST(EventLogTest, DisableDropsEverything)
{
    EventLog log;
    log.enable(4);
    log.log("x");
    log.disable();
    EXPECT_FALSE(log.enabled());
    EXPECT_TRUE(log.recent(4).empty());
}

TEST(TypesTest, AddressArithmeticAndOrdering)
{
    VirtAddr a(0x1000);
    EXPECT_EQ(a.plus(0x10).value, 0x1010u);
    EXPECT_LT(VirtAddr(1), VirtAddr(2));
    PhysAddr p(0x2000);
    EXPECT_EQ(p.plus(4).value, 0x2004u);
}

TEST(TypesTest, SpaceVaEqualityIncludesSpace)
{
    SpaceVa a(1, VirtAddr(0x1000));
    SpaceVa b(2, VirtAddr(0x1000));
    EXPECT_NE(a, b);
    EXPECT_EQ(a, SpaceVa(1, VirtAddr(0x1000)));
}

TEST(TypesTest, MemOpNames)
{
    EXPECT_STREQ(memOpName(MemOp::CpuRead), "CPU-read");
    EXPECT_STREQ(memOpName(MemOp::DmaWrite), "DMA-write");
    EXPECT_STREQ(memOpName(MemOp::Flush), "Flush");
}

TEST(LoggingTest, FormatProducesExpectedText)
{
    EXPECT_EQ(format("x=%d y=%s", 5, "abc"), "x=5 y=abc");
}

} // anonymous namespace
} // namespace vic
