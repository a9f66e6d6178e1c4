/**
 * @file
 * Block-storage device attached to the DMA engine.
 *
 * Blocks are page sized. A block read completes with a DMA-write into
 * a physical frame; a block write is issued as a DMA-read from a
 * physical frame. The device keeps its own backing store so that data
 * written with stale cache lines unflushed really is corrupted on
 * "disk" and comes back corrupted — which is how the consistency
 * oracle catches a missing pre-DMA flush.
 */

#ifndef VIC_DMA_DISK_HH
#define VIC_DMA_DISK_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dma/dma_engine.hh"

namespace vic
{

class Disk
{
  public:
    /**
     * @param block_bytes block size (equal to the VM page size)
     * @param access_cycles modelled seek+rotation cost per request
     * @param engine    DMA engine used for transfers
     * @param clock     cycle clock
     * @param stat_set  statistics registry
     */
    Disk(std::uint32_t block_bytes, Cycles access_cycles,
         DmaEngine &engine, CycleClock &clock, StatSet &stat_set);

    std::uint32_t blockBytes() const { return blockSize; }

    /**
     * Begin reading block @p block into the frame at physical address
     * @p pa (a DMA-write into memory). Unwritten blocks read as zero.
     * The transfer's line-granular beats are pending on the engine
     * until the returned ticket is drained.
     */
    DmaTicket readBlock(std::uint64_t block, PhysAddr pa);

    /**
     * Begin writing the frame at @p pa to block @p block (a DMA-read
     * from memory). The block's backing store is updated only when the
     * final beat completes, so mid-transfer schedules genuinely
     * observe a torn block.
     */
    DmaTicket writeBlock(std::uint64_t block, PhysAddr pa);

    /** Direct peek at stored data, for tests. Unwritten blocks read as
     *  zero. */
    std::uint32_t peekWord(std::uint64_t block,
                           std::uint32_t word_index) const;

  private:
    std::uint32_t blockSize;
    Cycles accessCycles;
    DmaEngine &dma;
    CycleClock &clk;

    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> blocks;

    Counter &statBlockReads;
    Counter &statBlockWrites;

    std::uint32_t wordsPerBlock() const { return blockSize / 4; }
};

} // namespace vic

#endif // VIC_DMA_DISK_HH
