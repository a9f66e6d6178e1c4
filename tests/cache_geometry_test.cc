/** @file Unit tests for cache geometry: index math, colours,
 *  alignment. */

#include <type_traits>

#include <gtest/gtest.h>

#include "cache/cache_geometry.hh"

namespace vic
{
namespace
{

CacheGeometry
vipt64k()
{
    // 64 KB direct-mapped VIPT cache, 32 B lines, 4 KB pages.
    return CacheGeometry(64 * 1024, 32, 4096, 1, Indexing::Virtual);
}

TEST(CacheGeometryTest, BasicDerivedQuantities)
{
    CacheGeometry g = vipt64k();
    EXPECT_EQ(g.numLines(), 2048u);
    EXPECT_EQ(g.numSets(), 2048u);
    EXPECT_EQ(g.wordsPerLine(), 8u);
    EXPECT_EQ(g.linesPerPage(), 128u);
    EXPECT_EQ(g.setSpanBytes(), 64u * 1024u);
    EXPECT_EQ(g.numColours(), 16u);
}

TEST(CacheGeometryTest, ColourIsPageNumberModuloColours)
{
    CacheGeometry g = vipt64k();
    EXPECT_EQ(g.colourOf(VirtAddr(0)), 0u);
    EXPECT_EQ(g.colourOf(VirtAddr(4096)), 1u);
    EXPECT_EQ(g.colourOf(VirtAddr(15 * 4096)), 15u);
    EXPECT_EQ(g.colourOf(VirtAddr(16 * 4096)), 0u);
    // Offsets within a page do not change the colour.
    EXPECT_EQ(g.colourOf(VirtAddr(4096 + 4095)), 1u);
}

TEST(CacheGeometryTest, ColourOfMatchesPageNumberDivision)
{
    // colourOf shifts by log2(page); the definition divides.
    for (const CacheGeometry &g :
         {vipt64k(),
          CacheGeometry(256 * 1024, 32, 4096, 1, Indexing::Virtual),
          CacheGeometry(64 * 1024, 16, 8192, 2, Indexing::Virtual),
          CacheGeometry(4 * 1024, 32, 4096, 1, Indexing::Virtual),
          CacheGeometry(64 * 1024, 32, 4096, 1, Indexing::Physical)}) {
        const std::uint64_t page = g.pageBytes();
        const std::uint64_t colours = g.numColours();
        for (std::uint64_t base : {0ull, 0x7ffff0000000ull}) {
            for (std::uint64_t va = base;
                 va < base + 4 * g.setSpanBytes() + 2 * page; va += 508) {
                ASSERT_EQ(g.colourOf(VirtAddr(va)),
                          (va / page) & (colours - 1))
                    << "va " << va << " page " << page << " colours "
                    << colours;
            }
        }
    }
}

TEST(CacheGeometryTest, AlignmentPredicate)
{
    CacheGeometry g = vipt64k();
    EXPECT_TRUE(g.aligned(VirtAddr(4096), VirtAddr(4096 + 16 * 4096)));
    EXPECT_FALSE(g.aligned(VirtAddr(4096), VirtAddr(2 * 4096)));
    // The paper's first hardware requirement: page alignment implies
    // alignment of every offset within the page.
    for (std::uint32_t off = 0; off < 4096; off += 32) {
        const PhysAddr pa(7 * 4096 + off);
        EXPECT_EQ(g.setIndex(VirtAddr(4096 + off), pa),
                  g.setIndex(VirtAddr(4096 + 16 * 4096 + off), pa));
    }
}

TEST(CacheGeometryTest, SetIndexWrapsAtSpan)
{
    CacheGeometry g = vipt64k();
    const PhysAddr pa(0x3000);
    EXPECT_EQ(g.setIndex(VirtAddr(0), pa), 0u);
    EXPECT_EQ(g.setIndex(VirtAddr(32), pa), 1u);
    EXPECT_EQ(g.setIndex(VirtAddr(64 * 1024), pa), 0u);
}

TEST(CacheGeometryTest, VirtualIndexIgnoresPhysicalAddress)
{
    CacheGeometry g = vipt64k();
    const VirtAddr va(0x5a40);
    EXPECT_EQ(g.setIndex(va, PhysAddr(0)), 0x5a40u >> 5);
    EXPECT_EQ(g.setIndex(va, PhysAddr(0x9e7c0)), 0x5a40u >> 5);
}

TEST(CacheGeometryTest, PhysicalIndexIgnoresVirtualAddress)
{
    CacheGeometry g(64 * 1024, 32, 4096, 1, Indexing::Physical);
    const PhysAddr pa(0x2340);
    EXPECT_EQ(g.setIndex(VirtAddr(0), pa), 0x2340u >> 5);
    EXPECT_EQ(g.setIndex(VirtAddr(0x9e7c0), pa), 0x2340u >> 5);
}

TEST(CacheGeometryTest, PhysicalIndexingHasOneColour)
{
    CacheGeometry g(64 * 1024, 32, 4096, 1, Indexing::Physical);
    EXPECT_EQ(g.numColours(), 1u);
    // Every pair of virtual addresses aligns.
    EXPECT_TRUE(g.aligned(VirtAddr(0x1000), VirtAddr(0x2000)));
}

TEST(CacheGeometryTest, AssociativityShrinksSetSpan)
{
    // 4-way 64 KB: span = 16 KB = 4 colours.
    CacheGeometry g(64 * 1024, 32, 4096, 4, Indexing::Virtual);
    EXPECT_EQ(g.numSets(), 512u);
    EXPECT_EQ(g.setSpanBytes(), 16u * 1024u);
    EXPECT_EQ(g.numColours(), 4u);
}

TEST(CacheGeometryTest, SetSpanEqualPageMeansOneColour)
{
    // "Tying cache size and associativity to page size" (Section 1):
    // 16 KB 4-way = 4 KB span = page size -> no aliasing problem.
    CacheGeometry g(16 * 1024, 32, 4096, 4, Indexing::Virtual);
    EXPECT_EQ(g.numColours(), 1u);
}

TEST(CacheGeometryTest, LineBaseMasksOffset)
{
    CacheGeometry g = vipt64k();
    static_assert(std::is_same_v<decltype(g.lineBase(PhysAddr())),
                                 PhysAddr>);
    EXPECT_EQ(g.lineBase(PhysAddr(0x1234)), PhysAddr(0x1220));
    EXPECT_EQ(g.lineBase(PhysAddr(0x1220)), PhysAddr(0x1220));
}

TEST(CacheGeometryDeathTest, RejectsBadGeometry)
{
    EXPECT_DEATH(CacheGeometry(60 * 1024, 32, 4096, 1,
                               Indexing::Virtual),
                 "power of two");
    EXPECT_DEATH(CacheGeometry(64 * 1024, 32, 4096, 0,
                               Indexing::Virtual),
                 "associativity");
    EXPECT_DEATH(CacheGeometry(64 * 1024, 24, 4096, 1,
                               Indexing::Virtual),
                 "line size");
}

} // anonymous namespace
} // namespace vic
