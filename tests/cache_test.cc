/**
 * @file
 * Unit tests for the cache simulator: functional behaviour, the
 * aliasing failure modes the paper describes (stale reads, shadowing,
 * lost write-backs), flush/purge semantics, the cost model, and the
 * invariants a conflict copy run asserts.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : mem(64, 4096),
          geo(64 * 1024, 32, 4096, 1, Indexing::Virtual),
          cache("dcache", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats)
    {
    }

    PhysicalMemory mem;
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo;
    Cache cache;

    // Two virtual pages mapping physical page 2: one aligned with
    // nothing, one a different colour.
    const VirtAddr va1{1 * 4096};       // colour 1
    const VirtAddr va2{2 * 4096};       // colour 2 (unaligned alias)
    const VirtAddr va1b{17 * 4096};     // colour 1 (aligned alias)
    const PhysAddr pa{2 * 4096};
};

TEST_F(CacheTest, ReadMissFillsFromMemory)
{
    mem.writeWord(pa, 77);
    EXPECT_EQ(cache.read(va1, pa), 77u);
    EXPECT_EQ(stats.value("dcache.misses"), 1u);
    EXPECT_EQ(cache.read(va1, pa), 77u);
    EXPECT_EQ(stats.value("dcache.hits"), 1u);
}

TEST_F(CacheTest, WriteBackIsDeferred)
{
    cache.write(va1, pa, 123);
    // Memory is stale until the line is written back.
    EXPECT_EQ(mem.readWord(pa), 0u);
    Cache::Probe p = cache.probe(va1, pa);
    EXPECT_TRUE(p.present);
    EXPECT_TRUE(p.dirty);
    EXPECT_EQ(p.word, 123u);
}

TEST_F(CacheTest, UnalignedAliasReturnsStaleData)
{
    // The core failure of Section 2.2: write via va1, read via va2 —
    // without consistency management the read sees stale memory.
    cache.write(va1, pa, 555);
    EXPECT_EQ(cache.read(va2, pa), 0u);  // STALE: fetched from memory
}

TEST_F(CacheTest, AlignedAliasSharesTheLine)
{
    // Aligned aliases select the same line and are tag-matched by the
    // physical address: no inconsistency is possible.
    cache.write(va1, pa, 555);
    EXPECT_EQ(cache.read(va1b, pa), 555u);
}

TEST_F(CacheTest, LostWriteBackWithTwoDirtyAliases)
{
    // Both aliases dirty: whichever is flushed last wins — writes can
    // be lost (Section 2.2).
    cache.write(va1, pa, 111);
    cache.write(va2, pa, 222);
    cache.flushLine(va2, pa);
    cache.flushLine(va1, pa);  // stale 111 clobbers 222 in memory
    EXPECT_EQ(mem.readWord(pa), 111u);
}

TEST_F(CacheTest, FlushWritesBackAndInvalidates)
{
    cache.write(va1, pa, 42);
    EXPECT_TRUE(cache.flushLine(va1, pa));
    EXPECT_EQ(mem.readWord(pa), 42u);
    EXPECT_FALSE(cache.probe(va1, pa).present);
    // Second flush finds nothing.
    EXPECT_FALSE(cache.flushLine(va1, pa));
}

TEST_F(CacheTest, PurgeDiscardsDirtyData)
{
    cache.write(va1, pa, 42);
    EXPECT_TRUE(cache.purgeLine(va1, pa));
    EXPECT_EQ(mem.readWord(pa), 0u);  // write lost, as purge promises
    EXPECT_FALSE(cache.probe(va1, pa).present);
}

TEST_F(CacheTest, FlushChecksPhysicalTag)
{
    // A flush of va1 for a different physical page must not remove
    // pa's line (PA-RISC semantics: index by VA, compare tag).
    cache.write(va1, pa, 42);
    PhysAddr other(3 * 4096);
    EXPECT_FALSE(cache.flushLine(va1, other));
    EXPECT_TRUE(cache.probe(va1, pa).present);
}

TEST_F(CacheTest, PageOpsCoverEveryLine)
{
    for (std::uint32_t off = 0; off < 4096; off += 32)
        cache.write(va1.plus(off), pa.plus(off), off);
    EXPECT_EQ(cache.flushPage(va1, pa), 128u);
    for (std::uint32_t off = 0; off < 4096; off += 32) {
        EXPECT_EQ(mem.readWord(pa.plus(off)), off);
        EXPECT_EQ(mem.readWord(pa.plus(off + 4)), 0u);
    }
}

TEST_F(CacheTest, VictimWriteBackOnConflict)
{
    // Two physical lines mapping the same set: the dirty victim must
    // be written back before the fill.
    PhysAddr pb(18 * 4096);  // same colour-1 set as pa via va1's index
    cache.write(va1, pa, 9);
    cache.read(va1, pb);  // evicts the dirty line
    EXPECT_EQ(mem.readWord(pa), 9u);
    EXPECT_EQ(stats.value("dcache.write_backs"), 1u);
}

TEST_F(CacheTest, OpCostAsymmetry)
{
    // Section 2.3: an operation on a present line is several times
    // slower than on an absent one.
    cache.write(va1, pa, 1);
    Cycles before = clk.now();
    cache.purgeLine(va1, pa);  // present
    Cycles present_cost = clk.now() - before;

    before = clk.now();
    cache.purgeLine(va1, pa);  // now absent
    Cycles absent_cost = clk.now() - before;
    EXPECT_GT(present_cost, absent_cost);
    EXPECT_EQ(present_cost, CacheCosts{}.opLinePresent);
    EXPECT_EQ(absent_cost, CacheCosts{}.opLineAbsent);
}

TEST_F(CacheTest, UniformOpCostModelsICachePurge)
{
    CacheCosts costs;
    costs.uniformOpCost = true;
    Cache icache("icache", geo, costs, WritePolicy::WriteBack, mem, clk,
                 stats);
    Cycles before = clk.now();
    icache.purgeLine(va1, pa);  // absent, but constant time
    EXPECT_EQ(clk.now() - before, costs.opLinePresent);
}

TEST_F(CacheTest, SnoopInvalidateKillsAllAliases)
{
    cache.write(va1, pa, 1);
    cache.read(va2, pa);  // second (stale) copy at another set
    cache.snoopInvalidateLine(pa);
    EXPECT_FALSE(cache.probe(va1, pa).present);
    EXPECT_FALSE(cache.probe(va2, pa).present);
}

TEST_F(CacheTest, SnoopWriteBackDrainsDirtyAlias)
{
    cache.write(va1, pa, 31);
    EXPECT_TRUE(cache.snoopWriteBackLine(pa));
    EXPECT_EQ(mem.readWord(pa), 31u);
    EXPECT_FALSE(cache.snoopWriteBackLine(pa));  // now clean
}

TEST(CacheWriteThroughTest, MemoryNeverStale)
{
    PhysicalMemory mem(16, 4096);
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache wt("wt", geo, CacheCosts{}, WritePolicy::WriteThrough, mem,
             clk, stats);

    VirtAddr va(4096);
    PhysAddr pa(2 * 4096);
    wt.read(va, pa);            // allocate the line
    wt.write(va, pa, 77);       // hit: updates line AND memory
    EXPECT_EQ(mem.readWord(pa), 77u);
    Cache::Probe p = wt.probe(va, pa);
    EXPECT_TRUE(p.present);
    EXPECT_FALSE(p.dirty);      // write-through lines are never dirty
}

TEST(CacheWriteThroughTest, WriteMissDoesNotAllocate)
{
    PhysicalMemory mem(16, 4096);
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache wt("wt", geo, CacheCosts{}, WritePolicy::WriteThrough, mem,
             clk, stats);

    wt.write(VirtAddr(4096), PhysAddr(8192), 5);
    EXPECT_EQ(mem.readWord(PhysAddr(8192)), 5u);
    EXPECT_FALSE(wt.probe(VirtAddr(4096), PhysAddr(8192)).present);
}

TEST(CachePhysicalIndexTest, AliasesAreHarmless)
{
    PhysicalMemory mem(16, 4096);
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Physical);
    Cache pipt("pipt", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
               clk, stats);

    // Any two virtual addresses see the same line for one PA.
    pipt.write(VirtAddr(0x1000), PhysAddr(0x5000), 9);
    EXPECT_EQ(pipt.read(VirtAddr(0x7000), PhysAddr(0x5000)), 9u);
}

TEST(CacheSetAssociativeTest, WaysWithinASetStayConsistent)
{
    PhysicalMemory mem(64, 4096);
    CycleClock clk;
    StatSet stats;
    // 2-way: span 32 KB, 8 colours.
    CacheGeometry geo(64 * 1024, 32, 4096, 2, Indexing::Virtual);
    Cache c("assoc", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
            clk, stats);

    // Two physical lines in the same set coexist in different ways.
    PhysAddr pa1(2 * 4096), pa2(10 * 4096);
    VirtAddr va(4096);
    c.write(va, pa1, 1);
    c.write(va, pa2, 2);
    EXPECT_EQ(c.read(va, pa1), 1u);  // still present: two ways
    EXPECT_EQ(c.read(va, pa2), 2u);
    EXPECT_EQ(stats.value("assoc.write_backs"), 0u);
}

TEST(CacheSetAssociativeTest, LruEvictsOldestWay)
{
    PhysicalMemory mem(64, 4096);
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo(4 * 1024, 32, 4096, 2, Indexing::Virtual);
    Cache c("lru", geo, CacheCosts{}, WritePolicy::WriteBack, mem, clk,
            stats);

    VirtAddr va(0);
    PhysAddr pa1(0x4000), pa2(0x8000), pa3(0xc000);
    c.read(va, pa1);
    c.read(va, pa2);
    c.read(va, pa1);   // pa1 most recent
    c.read(va, pa3);   // evicts pa2
    EXPECT_TRUE(c.probe(va, pa1).present);
    EXPECT_FALSE(c.probe(va, pa2).present);
    EXPECT_TRUE(c.probe(va, pa3).present);
}

// A conflict copy run (direct mapped, destination Modified, source
// absent from the same set) asserts what its first pair leaves true.
// Through the public API the state below arises only by building it
// before the bus or the self-snoop that would prevent it exists.

TEST(CacheCopyRunDeathTest, BusPeerHoldingTheDestinationDies)
{
    PhysicalMemory mem(64, 4096);
    CycleClock clk;
    StatSet stats;
    const CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache self("dcache0", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
               clk, stats);
    Cache peer("dcache1", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
               clk, stats);
    const VirtAddr va(4096);               // one set for both lines
    const PhysAddr dst(2 * 4096), src(3 * 4096);
    (void)peer.read(va, dst);
    self.write(va, dst, 1);
    CoherenceBus bus(10, clk, stats);
    bus.attach(&self);
    bus.attach(&peer);
    EXPECT_DEATH(self.copyRun(va, dst, va, src, 3),
                 "single-owner invariant: peer dcache1 holds the "
                 "destination E");
}

TEST(CacheCopyRunDeathTest, SelfSnoopSecondCopyOfTheSourceDies)
{
    PhysicalMemory mem(64, 4096);
    CycleClock clk;
    StatSet stats;
    Cache c("dcache",
            CacheGeometry(64 * 1024, 32, 4096, 1, Indexing::Virtual),
            CacheCosts{}, WritePolicy::WriteBack, mem, clk, stats);
    const VirtAddr va(4096), alias(2 * 4096); // colours 1 and 2
    const PhysAddr dst(2 * 4096), src(3 * 4096);
    c.write(va, dst, 1);
    (void)c.read(alias, src);
    c.enableSelfSnoop(10);
    EXPECT_DEATH(c.copyRun(va, dst, va, src, 3),
                 "one copy per line: 1 copies of the source");
}

} // anonymous namespace
} // namespace vic
