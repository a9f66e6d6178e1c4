/**
 * @file
 * The TLB against a naive model, in lockstep.
 *
 * Tlb answers most translations from its MRU pair, the rest from a
 * flat open-addressed page -> slot index, takes a refill's free slot
 * from a bitmap, and charges a CPU line run's repeated hits in one
 * repeatHit() call. Its specification is much simpler: a fully
 * associative TLB with LRU replacement that finds a page by scanning
 * every slot. Seeded op streams drive both over one page table —
 * translations (often alternating between two pages, as a page copy
 * does), repeated hits, the three invalidations, and page-table enters
 * and removes, each remove shooting the page down before erasing it.
 * After every op the returned entry, the hit and miss counts, the
 * clock, the number of valid entries and the set of cached pages
 * (which page a refill evicted) must agree. The page pool is larger
 * than the largest capacity, so every TLB fills and evicts; capacities
 * 63 to 65 and 128 put the last slot on either side of a bitmap word
 * boundary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/cycle_clock.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "mmu/page_table.hh"
#include "tlb/tlb.hh"

namespace vic
{
namespace
{

constexpr std::uint32_t kPage = 4096;
constexpr Cycles kPenalty = 20;
constexpr int kSteps = 6000;
constexpr std::uint64_t kSeed = 0x71b;

/** The specification: a fully associative LRU TLB that scans. */
class ModelTlb
{
  public:
    ModelTlb(std::uint32_t capacity, PageTable &table)
        : slots(capacity), pageTable(table)
    {}

    PageTableEntry *
    translate(SpaceVa key)
    {
        const SpaceVa page = pageOf(key);
        for (Slot &s : slots) {
            if (s.valid && s.page == page) {
                s.lastUse = ++tick;
                ++hits;
                return s.pte;
            }
        }
        PageTableEntry *pte = pageTable.lookupMutable(page);
        if (pte == nullptr)
            return nullptr;
        ++misses;
        clk.advance(kPenalty);
        Slot *victim = &slots[0];
        for (Slot &s : slots) {
            if (!s.valid) {
                victim = &s;
                break;
            }
            if (s.lastUse < victim->lastUse)
                victim = &s;
        }
        *victim = Slot{true, page, ++tick, pte};
        return pte;
    }

    void
    invalidatePage(SpaceVa key)
    {
        for (Slot &s : slots)
            s.valid = s.valid && s.page != pageOf(key);
    }

    void
    invalidateSpace(SpaceId space)
    {
        for (Slot &s : slots)
            s.valid = s.valid && s.page.space != space;
    }

    void
    invalidateAll()
    {
        for (Slot &s : slots)
            s.valid = false;
    }

    std::uint32_t
    validCount() const
    {
        std::uint32_t n = 0;
        for (const Slot &s : slots)
            n += s.valid;
        return n;
    }

    bool
    holds(SpaceVa key) const
    {
        for (const Slot &s : slots)
            if (s.valid && s.page == pageOf(key))
                return true;
        return false;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    CycleClock clk;

  private:
    struct Slot
    {
        bool valid = false;
        SpaceVa page;
        std::uint64_t lastUse = 0;
        PageTableEntry *pte = nullptr;
    };

    SpaceVa pageOf(SpaceVa key) const
    { return SpaceVa(key.space, pageTable.pageBase(key.va)); }

    std::vector<Slot> slots;
    PageTable &pageTable;
    std::uint64_t tick = 0;
};

using TlbLockstepTest = ::testing::TestWithParam<std::uint32_t>;

TEST_P(TlbLockstepTest, MatchesLinearScanLruModel)
{
    const std::uint32_t capacity = GetParam();
    PageTable table(kPage);
    CycleClock clk;
    StatSet stats;
    Tlb tlb(capacity, kPenalty, table, clk, stats.counter("tlb.hits"),
            stats.counter("tlb.misses"));
    ModelTlb model(capacity, table);

    // Three spaces of 128 pages, three in four of them mapped: more
    // mapped pages than the largest TLB holds, so refills evict.
    constexpr std::uint32_t kSpaces = 3;
    constexpr std::uint32_t kPages = 128;
    std::vector<SpaceVa> pages;
    for (SpaceId s = 1; s <= kSpaces; ++s)
        for (std::uint32_t p = 0; p < kPages; ++p)
            pages.push_back(SpaceVa(s, VirtAddr(0x10000 + p * kPage)));
    for (std::size_t i = 0; i < pages.size(); ++i)
        if (i % 4 != 3)
            table.enter(pages[i], i, Protection::readWrite());

    Random rng(streamSeed(kSeed, capacity));
    std::size_t prev = 0;
    std::size_t last = 1;
    bool last_hit = false; // the last op translated pages[last]
    std::uint32_t peak_valid = 0;
    for (int step = 0; step < kSteps; ++step) {
        // Mostly the last two pages touched, as a page copy alternates.
        const std::size_t pick = rng.chance(1, 2)
            ? (rng.chance(1, 2) ? prev : last)
            : rng.below(pages.size());
        const SpaceVa key(pages[pick].space,
                          pages[pick].va.plus(4 * rng.below(kPage / 4)));
        // Mostly translations; the invalidations are rare enough that
        // even the largest TLB fills between them.
        const std::uint64_t op = rng.below(32);
        SCOPED_TRACE("step " + std::to_string(step) + " op " +
                     std::to_string(op) + " page " +
                     std::to_string(pick));
        bool hit = false;
        switch (op) {
          default: {
            PageTableEntry *got = tlb.translate(key);
            ASSERT_EQ(got, model.translate(key));
            hit = got != nullptr;
            if (pick != last) {
                prev = last;
                last = pick;
            }
            break;
          }
          case 0:
          case 1:
          case 2: {
            if (!last_hit)
                break;
            const std::uint32_t n =
                static_cast<std::uint32_t>(rng.between(1, 7));
            const SpaceVa again(pages[last].space, pages[last].va);
            PageTableEntry *want = nullptr;
            for (std::uint32_t i = 0; i < n; ++i)
                want = model.translate(again);
            ASSERT_EQ(tlb.repeatHit(again, n), want);
            hit = true;
            break;
          }
          case 3:
          case 4:
            tlb.invalidatePage(key);
            model.invalidatePage(key);
            break;
          case 5:
            if (rng.chance(1, 16)) {
                tlb.invalidateSpace(key.space);
                model.invalidateSpace(key.space);
            }
            break;
          case 6:
            if (rng.chance(1, 64)) {
                tlb.invalidateAll();
                model.invalidateAll();
            }
            break;
          case 7:
            // A new translation, or a remap in place.
            table.enter(key, rng.below(64), Protection::readWrite());
            break;
          case 8:
            // Shoot the page down, then erase it: no TLB may hold a
            // handle to an erased entry.
            tlb.invalidatePage(key);
            model.invalidatePage(key);
            table.remove(key);
            break;
        }
        last_hit = hit;

        ASSERT_EQ(stats.value("tlb.hits"), model.hits);
        ASSERT_EQ(stats.value("tlb.misses"), model.misses);
        ASSERT_EQ(clk.now(), model.clk.now());
        ASSERT_EQ(tlb.validCount(), model.validCount());
        peak_valid = std::max(peak_valid, tlb.validCount());
        for (const SpaceVa &p : pages)
            ASSERT_EQ(tlb.holds(p), model.holds(p))
                << "space " << p.space << " va " << p.va.value;
    }

    // The stream did real work: hits, refills, and a full TLB.
    EXPECT_GT(model.hits, 0u);
    EXPECT_GT(model.misses, 0u);
    EXPECT_EQ(peak_valid, capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbLockstepTest,
                         ::testing::Values(1u, 2u, 4u, 63u, 64u, 65u,
                                           96u, 128u),
                         [](const auto &entries) {
                             return "entries" +
                                    std::to_string(entries.param);
                         });

} // anonymous namespace
} // namespace vic
