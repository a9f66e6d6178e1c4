/**
 * @file
 * The cache's residency index against a full scan.
 *
 * Cache keeps, for every physical line, the number of valid copies it
 * holds (Cache::copiesOf), and trusts it to skip physical snoops and
 * the absent lines of a page flush or purge. Seeded op streams drive
 * every geometry the suites use through loads, stores, line and page
 * flushes and purges, and all four snoops, with and without synonym
 * self-snooping. After every op the index must equal the number of
 * probe() hits over the line's candidate sets, for every line of
 * memory, and the residency mask's bit must be set iff the count is
 * nonzero. A twin cache runs each page op as a loop of line ops, which
 * is what the page ops are defined to be: return values, counters and
 * the clock must match the indexed cache's after every op. Line sizes
 * of 16 and 128 bytes put a page's lines in four mask words and in
 * half of one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

constexpr std::uint32_t kPage = 4096;
constexpr int kSteps = 1500;
constexpr std::uint64_t kSeed = 0x1dec5;

struct Config
{
    std::uint64_t cacheBytes;
    std::uint32_t ways;
    Indexing indexing;
    WritePolicy policy;
    bool uniformOpCost; ///< the 720 I-cache's constant-time line ops
    bool selfSnoop;
    std::uint32_t lineBytes = 32;
};

/** One cache with its own memory, clock and counters. */
struct Rig
{
    Rig(const Config &cfg, std::uint64_t frames)
        : mem(frames, kPage),
          cache("c",
                CacheGeometry(cfg.cacheBytes, cfg.lineBytes, kPage,
                              cfg.ways, cfg.indexing),
                CacheCosts{.uniformOpCost = cfg.uniformOpCost},
                cfg.policy, mem, clk, stats)
    {
        if (cfg.selfSnoop)
            cache.enableSelfSnoop(3);
    }

    PhysicalMemory mem;
    CycleClock clk;
    StatSet stats;
    Cache cache;
};

using CacheIndexTest = ::testing::TestWithParam<Config>;

/** Copies of @p pa's line found by probing every set it could occupy:
 *  one per span colour under virtual indexing, the one set under
 *  physical indexing. */
std::uint32_t
scanCopies(const Cache &cache, PhysAddr pa)
{
    const CacheGeometry &geo = cache.geometry();
    const std::uint32_t sets =
        geo.indexing() == Indexing::Virtual ? geo.spanColours() : 1;
    std::uint32_t found = 0;
    for (std::uint32_t c = 0; c < sets; ++c) {
        const VirtAddr va(std::uint64_t(c) * kPage + pa.value % kPage);
        found += cache.probe(va, pa).present;
    }
    return found;
}

TEST_P(CacheIndexTest, IndexMatchesScanAndPageOpsMatchLineLoops)
{
    const Config &cfg = GetParam();
    // One frame more than the ways, so every set can overflow.
    const std::uint64_t frames = cfg.ways + 1;
    Rig rig(cfg, frames);
    Rig twin(cfg, frames);
    Cache &cache = rig.cache;
    const CacheGeometry &geo = cache.geometry();
    const std::uint32_t span = geo.spanColours();
    const std::uint32_t lines = geo.linesPerPage();
    const std::uint32_t line_bytes = cfg.lineBytes;

    Random rng(kSeed);
    for (int step = 0; step < kSteps; ++step) {
        // Mostly a few colours and line offsets, so sets conflict and
        // aliases coexist; now and then anywhere in the span and page.
        const std::uint64_t frame = rng.below(frames);
        const std::uint64_t colour =
            rng.chance(3, 4) ? rng.below(std::min(span, 4u))
                             : rng.below(span);
        const std::uint64_t line =
            rng.chance(3, 4) ? rng.below(8) : rng.below(lines);
        const std::uint64_t off =
            line * line_bytes + 4 * rng.below(line_bytes / 4);
        const VirtAddr page_va(colour * kPage);
        const PhysAddr page_pa(frame * kPage);
        const VirtAddr va = page_va.plus(off);
        const PhysAddr pa = page_pa.plus(off);
        const std::uint32_t value =
            static_cast<std::uint32_t>(rng.next64());

        const std::uint64_t op = rng.below(20);
        SCOPED_TRACE("step " + std::to_string(step) + " op " +
                     std::to_string(op));
        switch (op) {
          default:
            ASSERT_EQ(cache.read(va, pa), twin.cache.read(va, pa));
            break;
          case 1:
          case 2:
          case 3:
          case 4:
          case 5:
            cache.write(va, pa, value);
            twin.cache.write(va, pa, value);
            break;
          case 6:
            ASSERT_EQ(cache.flushLine(va, pa),
                      twin.cache.flushLine(va, pa));
            break;
          case 7:
            ASSERT_EQ(cache.purgeLine(va, pa),
                      twin.cache.purgeLine(va, pa));
            break;
          case 8:
          case 9: {
            const bool flush = op == 8;
            const std::uint32_t got = flush
                ? cache.flushPage(page_va, page_pa)
                : cache.purgePage(page_va, page_pa);
            std::uint32_t want = 0;
            for (std::uint32_t o = 0; o < kPage; o += line_bytes) {
                want += flush
                    ? twin.cache.flushLine(page_va.plus(o),
                                           page_pa.plus(o))
                    : twin.cache.purgeLine(page_va.plus(o),
                                           page_pa.plus(o));
            }
            ASSERT_EQ(got, want);
            break;
          }
          case 10:
            cache.snoopInvalidateLine(pa);
            twin.cache.snoopInvalidateLine(pa);
            break;
          case 11:
            ASSERT_EQ(cache.snoopWriteBackLine(pa),
                      twin.cache.snoopWriteBackLine(pa));
            break;
          case 12:
          case 13: {
            const Cache::SnoopReply a = op == 12
                ? cache.snoopBusRead(pa)
                : cache.snoopBusInvalidate(pa);
            const Cache::SnoopReply b = op == 12
                ? twin.cache.snoopBusRead(pa)
                : twin.cache.snoopBusInvalidate(pa);
            ASSERT_EQ(a.hadCopy, b.hadCopy);
            ASSERT_EQ(a.intervened, b.intervened);
            break;
          }
        }

        ASSERT_EQ(rig.clk.now(), twin.clk.now());
        ASSERT_EQ(rig.stats.snapshot(), twin.stats.snapshot());
        for (std::uint64_t n = 0; n < frames * lines; ++n) {
            const PhysAddr line_pa(n * line_bytes);
            const std::uint32_t copies = cache.copiesOf(line_pa);
            ASSERT_EQ(copies, scanCopies(cache, line_pa))
                << "pa " << line_pa.value;
            ASSERT_EQ(copies, twin.cache.copiesOf(line_pa))
                << "pa " << line_pa.value;
            ASSERT_EQ(cache.residentBit(line_pa), copies != 0)
                << "pa " << line_pa.value;
            ASSERT_EQ(twin.cache.residentBit(line_pa), copies != 0)
                << "pa " << line_pa.value;
        }
    }

    // The stream did real work, and both memories saw the same
    // write-backs.
    EXPECT_GT(rig.stats.value("c.fills"), 0u);
    EXPECT_GT(rig.stats.value("c.flush_present") +
                  rig.stats.value("c.purge_present"),
              0u);
    for (std::uint64_t w = 0; w < frames * kPage / 4; ++w)
        ASSERT_EQ(rig.mem.readWord(PhysAddr(w * 4)),
                  twin.mem.readWord(PhysAddr(w * 4)))
            << "word " << w;
}

std::string
configName(const ::testing::TestParamInfo<Config> &info)
{
    const Config &c = info.param;
    std::string s = std::to_string(c.cacheBytes / 1024) + "k_w" +
                    std::to_string(c.ways);
    s += c.indexing == Indexing::Virtual ? "_vipt" : "_pipt";
    s += c.policy == WritePolicy::WriteBack ? "_wb" : "_wt";
    if (c.uniformOpCost)
        s += "_uniform";
    if (c.selfSnoop)
        s += "_selfsnoop";
    if (c.lineBytes != 32)
        s += "_line" + std::to_string(c.lineBytes);
    return s;
}

/** The suites' geometries: the Figure-1 D- and I-cache (the I-cache
 *  with uniform op cost), the geometry ablation's sizes, and the
 *  architecture ablation's associativities, physical index and
 *  write-through cache; plus 16- and 128-byte lines (256 and 32 lines
 *  per page); each with and without synonym self-snoop. */
std::vector<Config>
suiteConfigs()
{
    constexpr auto V = Indexing::Virtual;
    constexpr auto P = Indexing::Physical;
    constexpr auto WB = WritePolicy::WriteBack;
    constexpr auto WT = WritePolicy::WriteThrough;
    std::vector<Config> out;
    for (bool snoop : {false, true}) {
        for (const Config &c : {
                 Config{4 * 1024, 1, V, WB, false, snoop},
                 Config{16 * 1024, 1, V, WB, false, snoop},
                 Config{64 * 1024, 1, V, WB, false, snoop},
                 Config{64 * 1024, 1, V, WB, true, snoop},
                 Config{256 * 1024, 1, V, WB, false, snoop},
                 Config{64 * 1024, 2, V, WB, false, snoop},
                 Config{64 * 1024, 16, V, WB, false, snoop},
                 Config{64 * 1024, 1, P, WB, false, snoop},
                 Config{64 * 1024, 1, V, WT, false, snoop},
                 Config{64 * 1024, 1, V, WB, false, snoop, 16},
                 Config{64 * 1024, 1, V, WB, false, snoop, 128},
                 Config{64 * 1024, 4, V, WB, false, snoop, 128},
             })
            out.push_back(c);
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(SuiteGeometries, CacheIndexTest,
                         ::testing::ValuesIn(suiteConfigs()),
                         configName);

TEST(CacheIndexDeathTest, RejectsMoreCandidateSetsThanACountHolds)
{
    // 1 MB direct mapped at 4 KB pages: 256 sets could each hold a
    // copy of one physical line, one more than a count can hold.
    PhysicalMemory mem(1, kPage);
    CycleClock clk;
    StatSet stats;
    EXPECT_DEATH(Cache("c",
                       CacheGeometry(1024 * 1024, 32, kPage, 1,
                                     Indexing::Virtual),
                       CacheCosts{}, WritePolicy::WriteBack, mem, clk,
                       stats),
                 "residency index");
}

} // anonymous namespace
} // namespace vic
