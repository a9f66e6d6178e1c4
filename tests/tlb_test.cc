/** @file Unit tests for the TLB. */

#include <gtest/gtest.h>

#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "mmu/page_table.hh"
#include "tlb/tlb.hh"

namespace vic
{
namespace
{

class TlbTest : public ::testing::Test
{
  protected:
    TlbTest()
        : table(4096),
          tlb(4, 20, table, clk, stats.counter("tlb.hits"),
              stats.counter("tlb.misses"))
    {}

    CycleClock clk;
    StatSet stats;
    PageTable table;
    Tlb tlb;
};

TEST_F(TlbTest, MissThenHit)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readWrite());

    const PageTableEntry *pte = tlb.translate(SpaceVa(1, VirtAddr(0x1234)));
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->frame, 7u);
    EXPECT_EQ(stats.value("tlb.misses"), 1u);

    tlb.translate(SpaceVa(1, VirtAddr(0x1ff0)));
    EXPECT_EQ(stats.value("tlb.hits"), 1u);
}

TEST_F(TlbTest, MissChargesCycles)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    Cycles before = clk.now();
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    EXPECT_EQ(clk.now() - before, 20u);
    before = clk.now();
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    EXPECT_EQ(clk.now() - before, 0u);  // hits are free (parallel)
}

TEST_F(TlbTest, UnmappedReturnsNull)
{
    EXPECT_EQ(tlb.translate(SpaceVa(1, VirtAddr(0x9000))), nullptr);
    EXPECT_EQ(stats.value("tlb.misses"), 0u);  // no refill for nothing
}

TEST_F(TlbTest, SpacesAreDistinct)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    EXPECT_NE(tlb.translate(SpaceVa(1, VirtAddr(0x1000))), nullptr);
    EXPECT_EQ(tlb.translate(SpaceVa(2, VirtAddr(0x1000))), nullptr);
}

TEST_F(TlbTest, ReadsThroughProtectionChanges)
{
    // The pmap changes protections in the page table; the TLB must
    // never return a stale protection (it reads through).
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readWrite());
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    table.setProtection(SpaceVa(1, VirtAddr(0x1000)),
                        Protection::readOnly());
    const PageTableEntry *pte = tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    ASSERT_NE(pte, nullptr);
    EXPECT_FALSE(pte->prot.write);
}

TEST_F(TlbTest, InvalidatePage)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    EXPECT_EQ(tlb.validCount(), 1u);
    tlb.invalidatePage(SpaceVa(1, VirtAddr(0x1abc)));  // same page
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST_F(TlbTest, InvalidateSpaceLeavesOthers)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    table.enter(SpaceVa(2, VirtAddr(0x1000)), 8, Protection::readOnly());
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    tlb.translate(SpaceVa(2, VirtAddr(0x1000)));
    tlb.invalidateSpace(1);
    EXPECT_EQ(tlb.validCount(), 1u);
    tlb.invalidateAll();
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST_F(TlbTest, LruReplacementWithinCapacity)
{
    for (std::uint64_t p = 0; p < 5; ++p) {
        table.enter(SpaceVa(1, VirtAddr(p * 4096)), p,
                    Protection::readOnly());
    }
    for (std::uint64_t p = 0; p < 4; ++p)
        tlb.translate(SpaceVa(1, VirtAddr(p * 4096)));
    EXPECT_EQ(stats.value("tlb.misses"), 4u);
    // Touch page 0 so page 1 is the LRU victim.
    tlb.translate(SpaceVa(1, VirtAddr(0)));
    tlb.translate(SpaceVa(1, VirtAddr(4 * 4096)));  // evicts page 1
    tlb.translate(SpaceVa(1, VirtAddr(0)));         // still a hit
    EXPECT_EQ(stats.value("tlb.misses"), 5u);
    tlb.translate(SpaceVa(1, VirtAddr(1 * 4096)));  // miss (evicted)
    EXPECT_EQ(stats.value("tlb.misses"), 6u);
}

} // anonymous namespace
} // namespace vic
