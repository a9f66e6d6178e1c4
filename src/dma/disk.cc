#include "dma/disk.hh"

#include "common/logging.hh"

namespace vic
{

Disk::Disk(std::uint32_t block_bytes, Cycles access_cycles,
           DmaEngine &engine, CycleClock &clock, StatSet &stat_set)
    : blockSize(block_bytes), accessCycles(access_cycles), dma(engine),
      clk(clock),
      statBlockReads(stat_set.counter("disk.block_reads")),
      statBlockWrites(stat_set.counter("disk.block_writes"))
{
    vic_assert(block_bytes % 4 == 0, "block size %u not word multiple",
               block_bytes);
}

DmaTicket
Disk::readBlock(std::uint64_t block, PhysAddr pa)
{
    ++statBlockReads;
    clk.advance(accessCycles);
    auto it = blocks.find(block);
    if (it == blocks.end()) {
        std::vector<std::uint32_t> zeros(wordsPerBlock(), 0);
        return dma.startWrite(pa, zeros.data(), wordsPerBlock());
    }
    return dma.startWrite(pa, it->second.data(), wordsPerBlock());
}

DmaTicket
Disk::writeBlock(std::uint64_t block, PhysAddr pa)
{
    ++statBlockWrites;
    clk.advance(accessCycles);
    // The device latches the frame's data beat by beat; the block's
    // backing store is replaced only once the whole transfer lands, so
    // a schedule that corrupts memory mid-transfer corrupts the block.
    auto staging =
        std::make_shared<std::vector<std::uint32_t>>(wordsPerBlock());
    return dma.startRead(pa, staging->data(), wordsPerBlock(),
                         [this, block, staging] {
                             blocks[block] = std::move(*staging);
                         });
}

std::uint32_t
Disk::peekWord(std::uint64_t block, std::uint32_t word_index) const
{
    vic_assert(word_index < wordsPerBlock(), "word index %u out of block",
               word_index);
    auto it = blocks.find(block);
    return it == blocks.end() ? 0 : it->second[word_index];
}

} // namespace vic
