/**
 * @file
 * Unit tests for the simulated physical memory.
 *
 * A frame is zero-filled on its first write, so the store's other
 * frames hold whatever the host allocator left there. The lockstep test
 * runs the memory beside a flat vector over seeded streams of the four
 * accessors, each on a store the allocator hands back dirty; the
 * materialisation test pins the rule itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

TEST(PhysicalMemoryTest, GeometryAccessors)
{
    PhysicalMemory mem(16, 4096);
    EXPECT_EQ(mem.numFrames(), 16u);
    EXPECT_EQ(mem.pageSize(), 4096u);
    EXPECT_EQ(mem.sizeBytes(), 16u * 4096u);
}

TEST(PhysicalMemoryTest, StartsZeroed)
{
    PhysicalMemory mem(4, 4096);
    EXPECT_EQ(mem.readWord(PhysAddr(0)), 0u);
    EXPECT_EQ(mem.readWord(PhysAddr(4 * 4096 - 4)), 0u);
}

TEST(PhysicalMemoryTest, WordReadBack)
{
    PhysicalMemory mem(4, 4096);
    mem.writeWord(PhysAddr(0x1004), 0xdeadbeef);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1004)), 0xdeadbeefu);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1000)), 0u);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1008)), 0u);
}

TEST(PhysicalMemoryTest, FrameMath)
{
    PhysicalMemory mem(8, 4096);
    EXPECT_EQ(mem.frameOf(PhysAddr(0)), 0u);
    EXPECT_EQ(mem.frameOf(PhysAddr(4095)), 0u);
    EXPECT_EQ(mem.frameOf(PhysAddr(4096)), 1u);
    EXPECT_EQ(mem.baseOf(3).value, 3u * 4096u);
}

TEST(PhysicalMemoryTest, BulkTransfer)
{
    PhysicalMemory mem(4, 4096);
    std::uint32_t src[8];
    for (int i = 0; i < 8; ++i)
        src[i] = 100 + i;
    mem.writeWords(PhysAddr(0x2000), src, 8);

    std::uint32_t dst[8] = {};
    mem.readWords(PhysAddr(0x2000), dst, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(dst[i], 100u + i);
}

TEST(PhysicalMemoryTest, MaterialisesAFrameOnlyOnItsFirstWrite)
{
    PhysicalMemory mem(4, 4096);
    const PhysAddr base = mem.baseOf(2);
    EXPECT_EQ(mem.readWord(base.plus(4)), 0u);
    std::uint32_t line[8];
    std::fill_n(line, 8, 0xffffffffu);
    mem.readWords(base.plus(4096 - 32), line, 8);
    for (std::uint32_t w : line)
        EXPECT_EQ(w, 0u);
    for (FrameId f = 0; f < mem.numFrames(); ++f)
        EXPECT_FALSE(mem.frameWritten(f)) << "frame " << f;

    // The first write materialises its frame, and only that one; the
    // rest of the frame reads as zeros.
    mem.writeWord(base.plus(64), 7);
    for (FrameId f = 0; f < mem.numFrames(); ++f)
        EXPECT_EQ(mem.frameWritten(f), f == 2) << "frame " << f;
    for (std::uint64_t off = 0; off < 4096; off += 4)
        EXPECT_EQ(mem.readWord(base.plus(off)), off == 64 ? 7u : 0u)
            << "offset " << off;

    const std::uint32_t run[2] = {5, 6};
    mem.writeWords(mem.baseOf(3).plus(4096 - 8), run, 2);
    EXPECT_TRUE(mem.frameWritten(3));
    EXPECT_FALSE(mem.frameWritten(0));
    EXPECT_FALSE(mem.frameWritten(1));
    EXPECT_EQ(mem.readWord(mem.baseOf(3)), 0u);
    EXPECT_EQ(mem.readWord(mem.baseOf(3).plus(4096 - 4)), 6u);
}

/** Fill a memory of @p frames frames of @p page bytes with a non-zero
 *  pattern and destroy it, so that the allocator holds a dirty block
 *  of the size the next memory asks for. */
void
leaveDirtyStore(std::uint64_t frames, std::uint32_t page)
{
    PhysicalMemory dirty(frames, page);
    const std::uint32_t pattern[4] = {0xa5a5a5a5u, 0xdeadbeefu,
                                      0xffffffffu, 0x12345678u};
    for (std::uint64_t off = 0; off < frames * page; off += 16)
        dirty.writeWords(PhysAddr(off), pattern, 4);
}

/** A geometry for the lockstep streams. */
struct LockstepCase
{
    std::uint64_t frames;
    std::uint32_t page;
};

class PhysicalMemoryLockstep
    : public ::testing::TestWithParam<LockstepCase>
{
};

/** Seeded streams of the four accessors against a flat vector of
 *  words, each on a store left dirty by leaveDirtyStore. A range is 1
 *  to 8 words at any aligned address inside one frame; a quarter of
 *  them end on a frame's last word and one in sixteen starts at the
 *  last word of memory. */
TEST_P(PhysicalMemoryLockstep, MatchesAFlatVector)
{
    constexpr std::uint64_t kSeed = 0x9e3779;
    constexpr int kStreams = 4;
    constexpr int kSteps = 4000;
    const LockstepCase c = GetParam();
    const std::uint32_t frame_words = c.page / 4;
    const std::uint64_t words = c.frames * frame_words;
    for (int stream = 0; stream < kStreams; ++stream) {
        SCOPED_TRACE(::testing::Message() << "stream " << stream);
        Random rng(streamSeed(kSeed, stream));
        leaveDirtyStore(c.frames, c.page);
        PhysicalMemory mem(c.frames, c.page);
        std::vector<std::uint32_t> model(words, 0);
        std::vector<bool> written(c.frames, false);
        std::uint32_t buf[8] = {};
        for (int step = 0; step < kSteps; ++step) {
            SCOPED_TRACE(::testing::Message() << "step " << step);
            std::uint64_t idx = words - 1;
            std::uint32_t n = 1;
            if (!rng.chance(1, 16)) {
                const std::uint64_t frame = rng.below(c.frames);
                const std::uint32_t max_n = std::min(8u, frame_words);
                n = static_cast<std::uint32_t>(rng.between(1, max_n));
                const std::uint64_t last = (frame + 1) * frame_words;
                idx = rng.chance(1, 4)
                          ? last - n
                          : frame * frame_words +
                                rng.below(frame_words - n + 1);
            }
            const PhysAddr pa(idx * 4);
            switch (rng.below(4)) {
            case 0:
                ASSERT_EQ(mem.readWord(pa), model[idx]);
                break;
            case 1: {
                const auto v = static_cast<std::uint32_t>(rng.next64());
                mem.writeWord(pa, v);
                model[idx] = v;
                written[idx / frame_words] = true;
                break;
            }
            case 2:
                mem.readWords(pa, buf, n);
                for (std::uint32_t i = 0; i < n; ++i)
                    ASSERT_EQ(buf[i], model[idx + i]) << "word " << i;
                break;
            default:
                for (std::uint32_t i = 0; i < n; ++i) {
                    buf[i] = static_cast<std::uint32_t>(rng.next64());
                    model[idx + i] = buf[i];
                }
                mem.writeWords(pa, buf, n);
                written[idx / frame_words] = true;
                break;
            }
        }
        for (std::uint64_t i = 0; i < words; ++i)
            ASSERT_EQ(mem.readWord(PhysAddr(i * 4)), model[i])
                << "word " << i;
        for (FrameId f = 0; f < c.frames; ++f)
            ASSERT_EQ(mem.frameWritten(f), written[f]) << "frame " << f;
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, PhysicalMemoryLockstep,
                         ::testing::Values(LockstepCase{64, 16},
                                           LockstepCase{16, 64},
                                           LockstepCase{16, 1024},
                                           LockstepCase{8, 4096}),
                         [](const auto &geometry) {
                             return std::to_string(geometry.param.frames) +
                                    "x" +
                                    std::to_string(geometry.param.page);
                         });

TEST(PhysicalMemoryDeathTest, UnalignedAccessPanics)
{
    PhysicalMemory mem(2, 4096);
    EXPECT_DEATH(mem.readWord(PhysAddr(2)), "unaligned");
}

TEST(PhysicalMemoryDeathTest, OutOfRangePanics)
{
    PhysicalMemory mem(2, 4096);
    EXPECT_DEATH(mem.readWord(PhysAddr(2 * 4096)), "out of range");
    std::uint32_t line[8] = {};
    EXPECT_DEATH(mem.writeWords(PhysAddr(2 * 4096 - 16), line, 8),
                 "out of range");
}

TEST(PhysicalMemoryDeathTest, FrameCrossingRangePanics)
{
    PhysicalMemory mem(2, 4096);
    std::uint32_t line[8] = {};
    EXPECT_DEATH(mem.readWords(PhysAddr(4096 - 16), line, 8),
                 "crosses a frame");
    EXPECT_DEATH(mem.writeWords(PhysAddr(4096 - 4), line, 2),
                 "crosses a frame");
}

} // anonymous namespace
} // namespace vic
