/**
 * @file
 * Simulated physical memory.
 *
 * A flat, word-addressable (32-bit words) store divided into page
 * frames. The cache simulator fills and writes back lines against this
 * store; the DMA engine reads and writes it directly, bypassing the
 * caches — exactly the paper's machine model, where devices do not
 * snoop. Storing real data (not just metadata) is what lets an
 * incorrectly managed cache actually return stale values, which the
 * consistency oracle then detects.
 *
 * The word accessors are inline: every cache fill and write-back goes
 * through them. Each checks alignment and bounds once, in every build.
 */

#ifndef VIC_MEM_PHYSICAL_MEMORY_HH
#define VIC_MEM_PHYSICAL_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace vic
{

class PhysicalMemory
{
  public:
    /** Construct @p num_frames frames of @p page_size bytes each.
     *  @p page_size must be a multiple of 4. */
    PhysicalMemory(std::uint64_t num_frames, std::uint32_t page_size);

    std::uint64_t numFrames() const { return frames; }
    std::uint32_t pageSize() const { return pageBytes; }
    std::uint64_t sizeBytes() const { return frames * pageBytes; }

    /** Frame containing physical address @p pa. */
    FrameId frameOf(PhysAddr pa) const { return pa.value / pageBytes; }

    /** First physical address of frame @p frame. */
    PhysAddr baseOf(FrameId frame) const
    { return PhysAddr(frame * pageBytes); }

    /** Read the aligned 32-bit word at @p pa. */
    std::uint32_t readWord(PhysAddr pa) const
    { return store[wordIndex(pa, 1)]; }

    /** Write the aligned 32-bit word at @p pa. */
    void writeWord(PhysAddr pa, std::uint32_t value)
    { store[wordIndex(pa, 1)] = value; }

    /** Copy @p nwords words starting at @p pa into @p out (cache line
     *  fill). @p pa must be word aligned. */
    void
    readWords(PhysAddr pa, std::uint32_t *out, std::uint32_t nwords) const
    {
        std::copy_n(store.data() + wordIndex(pa, nwords), nwords, out);
    }

    /** Copy @p nwords words from @p in to @p pa (cache line
     *  write-back or DMA input). */
    void
    writeWords(PhysAddr pa, const std::uint32_t *in, std::uint32_t nwords)
    {
        std::copy_n(in, nwords, store.data() + wordIndex(pa, nwords));
    }

  private:
    std::uint64_t frames;
    std::uint32_t pageBytes;
    std::vector<std::uint32_t> store;

    /** Index of the word at @p pa; panics unless @p pa is word
     *  aligned and the @p nwords words from it lie inside the
     *  memory. */
    std::uint64_t
    wordIndex(PhysAddr pa, std::uint32_t nwords) const
    {
        const std::uint64_t idx = pa.value >> 2;
        if ((pa.value & 3) != 0 || idx + nwords > store.size()) [[unlikely]]
            badAccess(pa, nwords);
        return idx;
    }

    /** Panic on an unaligned or out-of-range access. */
    [[noreturn]] void badAccess(PhysAddr pa, std::uint32_t nwords) const;
};

} // namespace vic

#endif // VIC_MEM_PHYSICAL_MEMORY_HH
