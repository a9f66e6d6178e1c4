/** @file Unit tests for regions and the colour-aware VA allocator. */

#include <gtest/gtest.h>

#include "os/address_space.hh"

namespace vic
{
namespace
{

constexpr std::uint32_t pageBytes = 4096;
constexpr std::uint32_t colours = 16;
constexpr std::uint64_t dynBase = 0x8000'0000;

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpace as{3, pageBytes, colours, VirtAddr(dynBase)};

    std::shared_ptr<VmObject>
    obj(std::uint64_t pages)
    {
        return std::make_shared<VmObject>(VmObject::anonymous(pages));
    }

    CachePageId
    colourOf(VirtAddr va)
    {
        return static_cast<CachePageId>((va.value / pageBytes) %
                                        colours);
    }
};

TEST_F(AddressSpaceTest, AllocateVaFirstFit)
{
    VirtAddr a = as.allocateVa(2, std::nullopt);
    VirtAddr b = as.allocateVa(1, std::nullopt);
    EXPECT_EQ(a.value, dynBase);
    EXPECT_EQ(b.value, dynBase + 2 * pageBytes);
}

TEST_F(AddressSpaceTest, AllocateVaHonoursColour)
{
    for (CachePageId want : {0u, 5u, 15u, 3u, 3u}) {
        VirtAddr va = as.allocateVa(1, want);
        EXPECT_EQ(colourOf(va), want);
    }
}

TEST_F(AddressSpaceTest, ColouredAllocationsDoNotOverlap)
{
    VirtAddr a = as.allocateVa(3, 7);
    VirtAddr b = as.allocateVa(3, 7);
    EXPECT_GE(b.value, a.value + 3 * pageBytes);
}

TEST_F(AddressSpaceTest, RegionLookupByAnyContainedAddress)
{
    VirtAddr start = as.allocateVa(2, std::nullopt);
    as.createRegion(start, 2, Protection::readWrite(),
                    Protection::readWrite(), obj(2), 0, false);
    EXPECT_NE(as.regionFor(start), nullptr);
    EXPECT_NE(as.regionFor(start.plus(pageBytes + 12)), nullptr);
    EXPECT_EQ(as.regionFor(start.plus(2 * pageBytes)), nullptr);
}

TEST_F(AddressSpaceTest, RegionPageIndex)
{
    VirtAddr start = as.allocateVa(4, std::nullopt);
    Region &r = as.createRegion(start, 4, Protection::readWrite(),
                                Protection::readWrite(), obj(4), 0,
                                false);
    EXPECT_EQ(r.pageIndexOf(start, pageBytes), 0u);
    EXPECT_EQ(r.pageIndexOf(start.plus(3 * pageBytes + 100), pageBytes),
              3u);
}

TEST_F(AddressSpaceTest, RemoveRegionDetaches)
{
    VirtAddr start = as.allocateVa(1, std::nullopt);
    as.createRegion(start, 1, Protection::readOnly(),
                    Protection::readOnly(), obj(1), 0, false);
    Region r = as.removeRegion(start);
    EXPECT_EQ(r.start, start);
    EXPECT_EQ(as.regionFor(start), nullptr);
}

TEST_F(AddressSpaceTest, OverlappingRegionPanics)
{
    VirtAddr start = as.allocateVa(2, std::nullopt);
    as.createRegion(start, 2, Protection::readWrite(),
                    Protection::readWrite(), obj(2), 0, false);
    EXPECT_DEATH(as.createRegion(start.plus(pageBytes), 1,
                                 Protection::readWrite(),
                                 Protection::readWrite(), obj(1), 0,
                                 false),
                 "overlapping");
}

TEST_F(AddressSpaceTest, RegionLargerThanObjectPanics)
{
    VirtAddr start = as.allocateVa(2, std::nullopt);
    EXPECT_DEATH(as.createRegion(start, 2, Protection::readWrite(),
                                 Protection::readWrite(), obj(1), 0,
                                 false),
                 "exceeds object");
}

TEST_F(AddressSpaceTest, FirstAccessClaimedOnce)
{
    VirtAddr va(0x1234000);
    EXPECT_TRUE(as.claimFirstAccess(va));
    EXPECT_FALSE(as.claimFirstAccess(va));
    EXPECT_TRUE(as.claimFirstAccess(va.plus(pageBytes)));
}

TEST(VmObjectTest, AnonymousFactory)
{
    VmObject o = VmObject::anonymous(3);
    EXPECT_EQ(o.backing(), VmObject::Backing::Zero);
    EXPECT_EQ(o.numPages(), 3u);
    EXPECT_FALSE(o.frameAt(0).has_value());
    EXPECT_FALSE(o.swapBlockAt(0).has_value());
}

TEST(VmObjectTest, FileBackedFactory)
{
    VmObject o = VmObject::fileBacked(7, 2);
    EXPECT_EQ(o.backing(), VmObject::Backing::File);
    EXPECT_EQ(o.file(), 7u);
}

TEST(VmObjectTest, FrameResidency)
{
    VmObject o = VmObject::anonymous(3);
    o.setFrame(1, 42);
    EXPECT_EQ(o.frameAt(1), std::optional<FrameId>(42));
    EXPECT_EQ(o.residentFrames(), std::vector<FrameId>{42});
    o.clearFrame(1);
    EXPECT_FALSE(o.frameAt(1).has_value());
    EXPECT_TRUE(o.residentFrames().empty());
}

TEST(VmObjectTest, SwapBookkeeping)
{
    VmObject o = VmObject::anonymous(2);
    o.setSwapBlock(0, 0x100000001ull);
    EXPECT_EQ(o.swapBlockAt(0),
              std::optional<std::uint64_t>(0x100000001ull));
    EXPECT_EQ(o.swapBlocks().size(), 1u);
    o.clearSwapBlock(0);
    EXPECT_TRUE(o.swapBlocks().empty());
}

TEST(VmObjectDeathTest, OutOfRangePagePanics)
{
    VmObject o = VmObject::anonymous(1);
    EXPECT_DEATH(o.setFrame(1, 0), "out of range");
}

} // anonymous namespace
} // namespace vic
