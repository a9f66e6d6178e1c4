/**
 * @file
 * The page table against a std::map model, in lockstep.
 *
 * PageTable is a separate-chaining hash over arena nodes whose bucket
 * array doubles as it fills, and it hands out entry handles that the
 * TLB and the pmaps' mapping lists keep. Its specification is a sorted
 * map from (space, page base) to entry. Seeded SplitMix64 streams
 * drive both: enters of fresh and of mapped pages, removes,
 * setProtection, clearModified, lookups and mutable lookups, and
 * referenced/modified writes through handles held since their enter.
 * Keys carry random in-page offsets, so every call must canonicalise.
 * A stream first fills the table well past three doublings of the
 * bucket array, then drains most of it. After every op every pool
 * key's lookup must agree with the model, as must size() and
 * walkCount(), and every held handle must still be the entry
 * lookupMutable() finds.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.hh"
#include "mmu/page_table.hh"

namespace vic
{
namespace
{

constexpr std::uint32_t kPage = 4096;
constexpr std::uint64_t kSeed = 0x9a6e;
constexpr int kSteps = 4000;
/** Three spaces of 200 pages: up to 600 live entries against 64
 *  initial buckets. */
constexpr SpaceId kSpaces = 3;
constexpr std::uint64_t kPagesPerSpace = 200;

Protection
protOf(std::uint64_t bits)
{
    return Protection{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
}

class Lockstep
{
  public:
    explicit Lockstep(std::uint64_t stream)
        : rng(streamSeed(kSeed, stream))
    {
        for (SpaceId s = 1; s <= kSpaces; ++s)
            for (std::uint64_t p = 0; p < kPagesPerSpace; ++p)
                pool.push_back(SpaceVa(s, VirtAddr(p * kPage)));
    }

    void
    run()
    {
        std::size_t peak = 0;
        for (int step = 0; step < kSteps; ++step) {
            // Fill for the first half of the stream, then drain.
            const bool filling = step < kSteps / 2;
            step1(filling);
            compare(step);
            if (::testing::Test::HasFatalFailure())
                return;
            peak = std::max(peak, model.size());
        }
        // The fill must have crossed three doublings of the bucket
        // array (64 initial buckets, growing past 64, 128 and 256)
        // and the drain must have emptied most of the table.
        EXPECT_GT(peak, 256u);
        EXPECT_LT(model.size(), peak / 2);
        EXPECT_GT(reenters, 50);
        EXPECT_GT(handleWrites, 50);
    }

  private:
    Random rng;
    PageTable pt{kPage};
    std::vector<SpaceVa> pool;
    std::map<SpaceVa, PageTableEntry> model;
    std::map<SpaceVa, PageTableEntry *> handles;
    std::uint64_t walks = 0;
    int reenters = 0;
    int handleWrites = 0;

    /** A pool page with a random offset inside it. */
    SpaceVa
    anyKey()
    {
        const SpaceVa page = pool[rng.below(pool.size())];
        return SpaceVa(page.space, page.va.plus(rng.below(kPage)));
    }

    SpaceVa
    pageOf(SpaceVa key) const
    {
        return SpaceVa(key.space, pt.pageBase(key.va));
    }

    void
    step1(bool filling)
    {
        const SpaceVa key = anyKey();
        const SpaceVa page = pageOf(key);
        const auto it = model.find(page);
        const std::uint64_t op = rng.below(100);
        const std::uint64_t enter_below = filling ? 45 : 10;
        const std::uint64_t remove_below =
            enter_below + (filling ? 10 : 50);
        if (op < enter_below) {
            const FrameId frame = rng.below(1 << 20);
            const Protection prot = protOf(rng.below(8));
            PageTableEntry *h = pt.enter(key, frame, prot);
            ASSERT_NE(h, nullptr);
            if (it != model.end()) {
                // A re-enter assigns in place: the handle stays.
                ++reenters;
                ASSERT_EQ(h, handles.at(page))
                    << "re-enter moved the entry";
            }
            model[page] = PageTableEntry{frame, prot, false, false};
            handles[page] = h;
        } else if (op < remove_below) {
            const bool modified = pt.remove(key);
            EXPECT_EQ(modified, it != model.end() && it->second.modified);
            if (it != model.end()) {
                model.erase(it);
                handles.erase(page);
            }
        } else if (op < remove_below + 8) {
            if (it == model.end())
                return;  // setProtection of an unmapped page panics
            const Protection prot = protOf(rng.below(8));
            pt.setProtection(key, prot);
            it->second.prot = prot;
        } else if (op < remove_below + 16) {
            const bool was = pt.clearModified(key);
            EXPECT_EQ(was, it != model.end() && it->second.modified);
            if (it != model.end())
                it->second.modified = false;
        } else if (op < remove_below + 24) {
            expectEntry(pt.lookup(key), page);
            ++walks;
        } else if (op < remove_below + 32) {
            PageTableEntry *pte = pt.lookupMutable(key);
            ++walks;
            expectEntry(pte, page);
            if (pte != nullptr) {
                pte->referenced = true;
                it->second.referenced = true;
            }
        } else {
            // Write through a handle held since its enter, as the CPU
            // (through the TLB) and the pmaps do.
            if (handles.empty())
                return;
            auto h = handles.begin();
            std::advance(h, rng.below(handles.size()));
            const bool set_modified = rng.chance(1, 2);
            h->second->referenced = true;
            h->second->modified |= set_modified;
            PageTableEntry &m = model.at(h->first);
            m.referenced = true;
            m.modified |= set_modified;
            ++handleWrites;
        }
    }

    void
    expectEntry(const PageTableEntry *pte, SpaceVa page) const
    {
        const auto it = model.find(page);
        if (it == model.end()) {
            EXPECT_EQ(pte, nullptr);
            return;
        }
        ASSERT_NE(pte, nullptr);
        EXPECT_EQ(pte->frame, it->second.frame);
        EXPECT_EQ(pte->prot, it->second.prot);
        EXPECT_EQ(pte->referenced, it->second.referenced);
        EXPECT_EQ(pte->modified, it->second.modified);
    }

    void
    compare(int step)
    {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        ASSERT_EQ(pt.size(), model.size());
        ASSERT_EQ(pt.walkCount(), walks);
        for (const SpaceVa &page : pool) {
            // A key anywhere in the page finds the page's entry.
            const SpaceVa key(page.space,
                              page.va.plus(rng.below(kPage)));
            expectEntry(pt.lookup(key), page);
        }
        walks += pool.size();
        for (const auto &[page, h] : handles)
            ASSERT_EQ(h, pt.lookupMutable(page)) << "handle went stale";
        walks += handles.size();
    }
};

class PageTableModelTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PageTableModelTest, LockstepWithMapModel)
{
    Lockstep(GetParam()).run();
}

INSTANTIATE_TEST_SUITE_P(Streams, PageTableModelTest,
                         ::testing::Range(0, 4));

} // anonymous namespace
} // namespace vic
