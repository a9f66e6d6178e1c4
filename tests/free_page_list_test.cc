/**
 * @file
 * Unit tests for the single and per-colour free page lists, and a
 * lockstep run of each organisation against one std::deque per list.
 */

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "common/random.hh"
#include "mem/free_page_list.hh"

namespace vic
{
namespace
{

using Org = FreePageList::Organisation;

TEST(FreePageListTest, SingleFifoOrder)
{
    FreePageList fl(Org::Single, 4);
    fl.free(10, std::nullopt);
    fl.free(11, 2);
    fl.free(12, std::nullopt);
    EXPECT_EQ(fl.size(), 3u);

    EXPECT_EQ(fl.allocate(std::nullopt)->frame, 10u);
    EXPECT_EQ(fl.allocate(std::nullopt)->frame, 11u);
    EXPECT_EQ(fl.allocate(std::nullopt)->frame, 12u);
    EXPECT_TRUE(fl.empty());
    EXPECT_FALSE(fl.allocate(std::nullopt).has_value());
}

TEST(FreePageListTest, SingleReportsLastColour)
{
    FreePageList fl(Org::Single, 4);
    fl.free(5, 3);
    auto a = fl.allocate(std::nullopt);
    ASSERT_TRUE(a);
    EXPECT_EQ(a->frame, 5u);
    ASSERT_TRUE(a->lastColour);
    EXPECT_EQ(*a->lastColour, 3u);
}

TEST(FreePageListTest, SingleCountsColourLuck)
{
    FreePageList fl(Org::Single, 4);
    fl.free(1, 1);
    fl.free(2, 2);
    EXPECT_EQ(fl.allocate(1)->frame, 1u);  // lucky match
    EXPECT_EQ(fl.allocate(1)->frame, 2u);  // mismatch
    EXPECT_EQ(fl.colourHits(), 1u);
    EXPECT_EQ(fl.colourMisses(), 1u);
}

TEST(FreePageListTest, PerColourPrefersWantedColour)
{
    FreePageList fl(Org::PerColour, 4);
    fl.free(1, 1);
    fl.free(2, 2);
    fl.free(3, 3);

    auto a = fl.allocate(2);
    ASSERT_TRUE(a);
    EXPECT_EQ(a->frame, 2u);
    EXPECT_EQ(fl.colourHits(), 1u);
    EXPECT_EQ(fl.colourMisses(), 0u);
}

TEST(FreePageListTest, PerColourColourlessFramesCountAsHits)
{
    // A frame with no cache footprint is clean at every colour.
    FreePageList fl(Org::PerColour, 4);
    fl.free(7, std::nullopt);
    auto a = fl.allocate(2);
    ASSERT_TRUE(a);
    EXPECT_EQ(a->frame, 7u);
    EXPECT_EQ(fl.colourHits(), 1u);
}

TEST(FreePageListTest, PerColourStealsWhenColourEmpty)
{
    FreePageList fl(Org::PerColour, 4);
    fl.free(9, 0);
    auto a = fl.allocate(3);
    ASSERT_TRUE(a);
    EXPECT_EQ(a->frame, 9u);
    EXPECT_EQ(fl.colourMisses(), 1u);
}

TEST(FreePageListTest, PerColourNoPreference)
{
    FreePageList fl(Org::PerColour, 4);
    fl.free(4, 1);
    fl.free(5, std::nullopt);
    // Without a preference, colourless frames go first.
    EXPECT_EQ(fl.allocate(std::nullopt)->frame, 5u);
    EXPECT_EQ(fl.allocate(std::nullopt)->frame, 4u);
}

TEST(FreePageListTest, SizeTracksFreesAndAllocs)
{
    FreePageList fl(Org::PerColour, 2);
    for (FrameId f = 0; f < 10; ++f)
        fl.free(f, f % 2);
    EXPECT_EQ(fl.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(fl.allocate(std::nullopt).has_value());
    EXPECT_TRUE(fl.empty());
}

/**
 * The specification of FreePageList: one FIFO per list, as a
 * std::deque of (frame, last colour). Single keeps one list. PerColour
 * keeps one per colour plus a last one for colourless frames, and an
 * allocation takes the wanted colour, then a colourless frame (both
 * hits), then the lowest-numbered colour that has frames (a miss).
 */
class DequeModel
{
  public:
    DequeModel(Org organisation, std::uint32_t num_colours)
        : org(organisation), colours(num_colours),
          lists(organisation == Org::Single ? 1 : num_colours + 1)
    {
    }

    void
    free(FrameId frame, std::optional<CachePageId> last_colour)
    {
        const std::size_t idx = org == Org::Single ? 0
                                : last_colour      ? *last_colour
                                                   : colours;
        lists[idx].push_back({frame, last_colour});
    }

    std::optional<FreePageList::Allocation>
    allocate(std::optional<CachePageId> wanted)
    {
        if (org == Org::Single) {
            auto alloc = pop(0);
            if (alloc && wanted)
                ++(alloc->lastColour == wanted ? hits : misses);
            return alloc;
        }
        if (wanted) {
            if (auto alloc = pop(*wanted)) {
                ++hits;
                return alloc;
            }
        }
        if (auto alloc = pop(colours)) {
            if (wanted)
                ++hits;
            return alloc;
        }
        for (std::size_t i = 0; i < colours; ++i) {
            if (auto alloc = pop(i)) {
                if (wanted)
                    ++misses;
                return alloc;
            }
        }
        return std::nullopt;
    }

    std::uint64_t
    size() const
    {
        std::uint64_t n = 0;
        for (const auto &list : lists)
            n += list.size();
        return n;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    Org org;
    std::uint32_t colours;
    std::vector<std::deque<FreePageList::Allocation>> lists;

    std::optional<FreePageList::Allocation>
    pop(std::size_t idx)
    {
        if (lists[idx].empty())
            return std::nullopt;
        const FreePageList::Allocation front = lists[idx].front();
        lists[idx].pop_front();
        return front;
    }
};

constexpr std::uint64_t kLockstepSeed = 0xf9ee;
constexpr std::uint32_t kColours = 4;
constexpr FrameId kFrames = 48;
constexpr int kSteps = 3000;
constexpr int kStreams = 6;

/** A colour, or none one time in five. */
std::optional<CachePageId>
anyColour(Random &rng)
{
    if (rng.chance(1, 5))
        return std::nullopt;
    return static_cast<CachePageId>(rng.below(kColours));
}

/** Runs @p org over seeded streams of frees and allocations, beside
 *  the deque model, and compares them after every op. */
void
runLockstep(Org org)
{
    std::uint64_t dry = 0;
    for (int stream = 0; stream < kStreams; ++stream) {
        SCOPED_TRACE(::testing::Message() << "stream " << stream);
        Random rng(streamSeed(kLockstepSeed, stream));
        FreePageList list(org, kColours);
        DequeModel model(org, kColours);
        // Every frame starts allocated: the stream frees it first.
        std::vector<FrameId> held;
        for (FrameId f = 0; f < kFrames; ++f)
            held.push_back(f);
        for (int step = 0; step < kSteps; ++step) {
            SCOPED_TRACE(::testing::Message() << "step " << step);
            // Alternate phases that mostly free and mostly allocate,
            // so the lists run full and run dry.
            const bool filling = (step / 250) % 2 == 0;
            if (!held.empty() && rng.chance(filling ? 3 : 1, 4)) {
                const std::size_t i = rng.below(held.size());
                const FrameId frame = held[i];
                held[i] = held.back();
                held.pop_back();
                const std::optional<CachePageId> colour = anyColour(rng);
                list.free(frame, colour);
                model.free(frame, colour);
            } else {
                const std::optional<CachePageId> wanted = anyColour(rng);
                const auto got = list.allocate(wanted);
                const auto want = model.allocate(wanted);
                ASSERT_EQ(got.has_value(), want.has_value());
                if (want) {
                    ASSERT_EQ(got->frame, want->frame);
                    ASSERT_EQ(got->lastColour, want->lastColour);
                    held.push_back(want->frame);
                } else {
                    ++dry;
                }
            }
            ASSERT_EQ(list.size(), model.size());
            ASSERT_EQ(list.colourHits(), model.hits);
            ASSERT_EQ(list.colourMisses(), model.misses);
        }
        // Hits, misses and allocations from empty lists all happen.
        EXPECT_GT(model.hits, 100u);
        EXPECT_GT(model.misses, 100u);
    }
    EXPECT_GT(dry, 100u);
}

TEST(FreePageListTest, SingleMatchesDequeModel)
{
    runLockstep(Org::Single);
}

TEST(FreePageListTest, PerColourMatchesDequeModel)
{
    runLockstep(Org::PerColour);
}

} // anonymous namespace
} // namespace vic
