/**
 * @file
 * Property tests for the cache simulator, parameterised over geometry:
 * every combination of capacity, line size, associativity and index
 * policy must satisfy the same functional contracts — read-your-write
 * through one address, flush durability, purge discard, snoop
 * completeness, and equivalence with a flat reference memory when
 * every access goes through a single virtual address.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

struct Geometry
{
    std::uint64_t cacheBytes;
    std::uint32_t lineBytes;
    std::uint32_t ways;
    Indexing indexing;
    WritePolicy policy;
};

class CachePropertyTest : public ::testing::TestWithParam<Geometry>
{
  protected:
    static constexpr std::uint32_t pageBytes = 4096;

    CachePropertyTest()
        : mem(64, pageBytes),
          geo(GetParam().cacheBytes, GetParam().lineBytes, pageBytes,
              GetParam().ways, GetParam().indexing),
          cache("c", geo, CacheCosts{}, GetParam().policy, mem, clk,
                stats)
    {
    }

    PhysicalMemory mem;
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo;
    Cache cache;
};

TEST_P(CachePropertyTest, ReadYourOwnWriteThroughOneAddress)
{
    Random rng(7);
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    const VirtAddr base(0x10000);
    const PhysAddr pbase(0x10000);
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t off = 4 * rng.below(4 * pageBytes / 4);
        if (rng.chance(1, 2)) {
            std::uint32_t v = static_cast<std::uint32_t>(rng.next64());
            cache.write(base.plus(off), pbase.plus(off), v);
            model[off] = v;
        } else {
            std::uint32_t got =
                cache.read(base.plus(off), pbase.plus(off));
            auto it = model.find(off);
            ASSERT_EQ(got, it == model.end() ? 0u : it->second)
                << "offset " << off << " step " << step;
        }
    }
}

TEST_P(CachePropertyTest, FlushMakesMemoryCurrent)
{
    const VirtAddr va(0x4000);
    const PhysAddr pa(0x8000);
    cache.write(va, pa, 1234);
    cache.flushLine(va, pa);
    EXPECT_EQ(mem.readWord(pa), 1234u);
    EXPECT_EQ(cache.read(va, pa), 1234u);
}

TEST_P(CachePropertyTest, PurgeNeverWritesBack)
{
    const VirtAddr va(0x4000);
    const PhysAddr pa(0x8000);
    mem.writeWord(pa, 77);
    cache.read(va, pa);
    cache.write(va, pa, 88);
    cache.purgeLine(va, pa);
    // Write-through already propagated; write-back discarded.
    if (GetParam().policy == WritePolicy::WriteBack)
        EXPECT_EQ(mem.readWord(pa), 77u);
    else
        EXPECT_EQ(mem.readWord(pa), 88u);
}

TEST_P(CachePropertyTest, PageOpsAreIdempotent)
{
    const VirtAddr va(0x4000);
    const PhysAddr pa(0x8000);
    for (std::uint32_t off = 0; off < pageBytes; off += 256)
        cache.write(va.plus(off), pa.plus(off), off);
    cache.flushPage(va, pa);
    EXPECT_EQ(cache.flushPage(va, pa), 0u);  // nothing left
    EXPECT_EQ(cache.purgePage(va, pa), 0u);
    for (std::uint32_t off = 0; off < pageBytes; off += 256)
        EXPECT_EQ(mem.readWord(pa.plus(off)), off);
}

TEST_P(CachePropertyTest, SnoopWriteBackFindsEveryAlias)
{
    const PhysAddr pa(0x8000);
    // Cache the line at several colours (only >1 matters for VIPT).
    const std::uint32_t colours = geo.numColours();
    for (std::uint32_t c = 0; c < colours; ++c)
        cache.read(VirtAddr(std::uint64_t(c) * pageBytes), pa);
    cache.write(VirtAddr(0), pa, 4242);
    // Write-back caches have a dirty line to drain; write-through
    // already put the value in memory.
    EXPECT_EQ(cache.snoopWriteBackLine(pa),
              GetParam().policy == WritePolicy::WriteBack);
    EXPECT_EQ(mem.readWord(pa), 4242u);
    cache.snoopInvalidateLine(pa);
    for (std::uint32_t c = 0; c < colours; ++c) {
        EXPECT_FALSE(
            cache.probe(VirtAddr(std::uint64_t(c) * pageBytes), pa)
                .present);
    }
}

TEST_P(CachePropertyTest, GeometryInvariants)
{
    EXPECT_EQ(std::uint64_t(geo.numLines()) * geo.lineBytes(),
              geo.cacheBytes());
    EXPECT_EQ(geo.numLines(), geo.numSets() * geo.associativity());
    EXPECT_EQ(geo.setSpanBytes() % pageBytes == 0 ||
                  geo.setSpanBytes() < pageBytes,
              true);
    if (geo.indexing() == Indexing::Physical) {
        EXPECT_EQ(geo.numColours(), 1u);
    }
    // Alignment is an equivalence relation respecting page offsets:
    // two aligned aliases of one physical word share its set.
    const VirtAddr a(3 * pageBytes), b(19 * pageBytes);
    const PhysAddr pa(7 * pageBytes + 96);
    if (geo.aligned(a, b)) {
        EXPECT_EQ(geo.setIndex(a.plus(96), pa),
                  geo.setIndex(b.plus(96), pa));
    }
}

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    const Geometry &g = info.param;
    std::string s = std::to_string(g.cacheBytes / 1024) + "k_l" +
                    std::to_string(g.lineBytes) + "_w" +
                    std::to_string(g.ways);
    s += g.indexing == Indexing::Virtual ? "_vipt" : "_pipt";
    s += g.policy == WritePolicy::WriteBack ? "_wb" : "_wt";
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CachePropertyTest,
    ::testing::Values(
        Geometry{8 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 64, 2, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 16, 4, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{256 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteThrough},
        Geometry{64 * 1024, 32, 1, Indexing::Physical,
                 WritePolicy::WriteBack},
        Geometry{64 * 1024, 32, 16, Indexing::Virtual,
                 WritePolicy::WriteBack},
        Geometry{4 * 1024, 32, 1, Indexing::Virtual,
                 WritePolicy::WriteBack}),
    geometryName);

} // anonymous namespace
} // namespace vic
