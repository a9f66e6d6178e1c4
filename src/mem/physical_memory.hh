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
 * Memory reads as zeros until written, but a frame is zero-filled on
 * its first write, not at construction, much as the paper's kernel
 * zero-fills a page only when it is first touched. The store is
 * allocated uninitialised, and one bit per frame records whether the
 * frame has been written. A read of an unwritten frame returns zeros
 * and leaves the frame as it is, so a run pays to fill only the frames
 * it writes.
 *
 * The word accessors are inline: every cache fill and write-back goes
 * through them. Each checks alignment and bounds once, in every build.
 * A range must lie inside one frame (a cache line or a DMA beat never
 * crosses a page), so one bit test covers it.
 */

#ifndef VIC_MEM_PHYSICAL_MEMORY_HH
#define VIC_MEM_PHYSICAL_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace vic
{

class PhysicalMemory
{
  public:
    /** Construct @p num_frames frames of @p page_size bytes each.
     *  @p page_size must be a power of two, at least 4. */
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
    {
        const std::uint64_t idx = wordIndex(pa, 1);
        return written[idx >> frameWordShift] ? store[idx] : 0;
    }

    /** Write the aligned 32-bit word at @p pa. */
    void writeWord(PhysAddr pa, std::uint32_t value)
    {
        const std::uint64_t idx = wordIndex(pa, 1);
        materialise(idx);
        store[idx] = value;
    }

    /** Copy @p nwords words starting at @p pa into @p out (cache line
     *  fill). @p pa must be word aligned. */
    void
    readWords(PhysAddr pa, std::uint32_t *out, std::uint32_t nwords) const
    {
        const std::uint64_t idx = wordIndex(pa, nwords);
        if (written[idx >> frameWordShift])
            std::copy_n(store.get() + idx, nwords, out);
        else
            std::fill_n(out, nwords, 0u);
    }

    /** Copy @p nwords words from @p in to @p pa (cache line
     *  write-back or DMA input). */
    void
    writeWords(PhysAddr pa, const std::uint32_t *in, std::uint32_t nwords)
    {
        const std::uint64_t idx = wordIndex(pa, nwords);
        materialise(idx);
        std::copy_n(in, nwords, store.get() + idx);
    }

    /** Whether frame @p frame has been written, and so zero-filled,
     *  since construction (never charges; for tests). */
    bool frameWritten(FrameId frame) const { return written[frame]; }

  private:
    std::uint64_t frames;
    std::uint32_t pageBytes;
    /** log2 of the words in a frame: word @c idx lies in frame
     *  <tt>idx >> frameWordShift</tt>. */
    std::uint32_t frameWordShift;
    /** Every word of memory; a frame's words are indeterminate until
     *  its bit in @c written is set. */
    std::unique_ptr<std::uint32_t[]> store;
    /** One bit per frame: set by the frame's first write, which
     *  zero-fills it. */
    std::vector<bool> written;

    /** Zero-fill the frame of word @p idx unless it has been
     *  written. */
    void materialise(std::uint64_t idx)
    {
        if (!written[idx >> frameWordShift]) [[unlikely]]
            zeroFill(idx >> frameWordShift);
    }

    /** Zero-fill @p frame and mark it written. */
    void zeroFill(std::uint64_t frame);

    /** Index of the word at @p pa; panics unless @p pa is word
     *  aligned and the @p nwords words from it lie inside one frame
     *  of the memory. */
    std::uint64_t
    wordIndex(PhysAddr pa, std::uint32_t nwords) const
    {
        const std::uint64_t idx = pa.value >> 2;
        const std::uint64_t frame_words = std::uint64_t(1)
                                          << frameWordShift;
        if ((pa.value & 3) != 0 || (idx >> frameWordShift) >= frames ||
            (idx & (frame_words - 1)) + nwords > frame_words) [[unlikely]]
            badAccess(pa, nwords);
        return idx;
    }

    /** Panic on an unaligned, out-of-range or frame-crossing
     *  access. */
    [[noreturn]] void badAccess(PhysAddr pa, std::uint32_t nwords) const;
};

} // namespace vic

#endif // VIC_MEM_PHYSICAL_MEMORY_HH
