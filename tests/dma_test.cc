/** @file Unit tests for the DMA engine and disk device. */

#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "dma/disk.hh"
#include "dma/dma_engine.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

class DmaTest : public ::testing::Test
{
  protected:
    DmaTest()
        : mem(16, 4096), dma(DmaCosts{}, mem, clk, stats),
          disk(4096, 1000, dma, clk, stats)
    {
    }

    PhysicalMemory mem;
    CycleClock clk;
    StatSet stats;
    DmaEngine dma;
    Disk disk;
};

TEST_F(DmaTest, DeviceWriteLandsInMemory)
{
    std::uint32_t data[4] = {1, 2, 3, 4};
    dma.deviceWrite(PhysAddr(0x1000), data, 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x1000 + 4 * i)), data[i]);
}

TEST_F(DmaTest, DeviceReadSeesMemoryNotCache)
{
    // Non-snooping DMA reads physical memory even when the cache
    // holds newer data: the OS must flush first.
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache cache("d", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats);
    cache.write(VirtAddr(0x1000), PhysAddr(0x1000), 99);

    std::uint32_t out[1] = {~0u};
    dma.deviceRead(PhysAddr(0x1000), out, 1);
    EXPECT_EQ(out[0], 0u);  // stale memory: the paper's DMA-read hazard
}

TEST_F(DmaTest, SnoopingReadDrainsDirtyLines)
{
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache cache("d", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats);
    dma.attachSnoopedCache(&cache);
    EXPECT_TRUE(dma.snooping());

    cache.write(VirtAddr(0x1000), PhysAddr(0x1000), 99);
    std::uint32_t out[1] = {0};
    dma.deviceRead(PhysAddr(0x1000), out, 1);
    EXPECT_EQ(out[0], 99u);  // coherent DMA (Section 3.3 variant)
}

TEST_F(DmaTest, SnoopingWriteInvalidatesCachedCopies)
{
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache cache("d", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats);
    dma.attachSnoopedCache(&cache);

    cache.read(VirtAddr(0x1000), PhysAddr(0x1000));  // cache the line
    std::uint32_t data[1] = {42};
    dma.deviceWrite(PhysAddr(0x1000), data, 1);
    EXPECT_FALSE(cache.probe(VirtAddr(0x1000), PhysAddr(0x1000)).present);
    EXPECT_EQ(cache.read(VirtAddr(0x1000), PhysAddr(0x1000)), 42u);
}

TEST_F(DmaTest, SnoopingCoversEveryCacheLineOfABeat)
{
    // A 32-byte beat spans two lines of a 16-byte-line cache; the
    // beat snoops each of them once before its words move.
    CacheGeometry geo(64 * 1024, 16, 4096, 1, Indexing::Virtual);
    Cache cache("d", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats);
    dma.attachSnoopedCache(&cache);

    cache.write(VirtAddr(0x1000), PhysAddr(0x1000), 7);
    cache.write(VirtAddr(0x1010), PhysAddr(0x1010), 8);
    std::uint32_t out[8] = {};
    dma.deviceRead(PhysAddr(0x1000), out, 8);
    EXPECT_EQ(out[0], 7u);
    EXPECT_EQ(out[4], 8u);

    const std::uint32_t data[8] = {};
    dma.deviceWrite(PhysAddr(0x1000), data, 8);
    EXPECT_EQ(cache.copiesOf(PhysAddr(0x1000)), 0u);
    EXPECT_EQ(cache.copiesOf(PhysAddr(0x1010)), 0u);
}

TEST_F(DmaTest, TransfersChargeCycles)
{
    std::uint32_t data[8] = {};
    Cycles before = clk.now();
    dma.deviceWrite(PhysAddr(0), data, 8);
    EXPECT_EQ(clk.now() - before, DmaCosts{}.setup + 8 * DmaCosts{}.perWord);
}

TEST_F(DmaTest, StatsCountTransfers)
{
    std::uint32_t data[2] = {};
    dma.deviceWrite(PhysAddr(0), data, 2);
    dma.deviceRead(PhysAddr(0), data, 2);
    EXPECT_EQ(stats.value("dma.device_writes"), 1u);
    EXPECT_EQ(stats.value("dma.device_reads"), 1u);
    EXPECT_EQ(stats.value("dma.words_moved"), 4u);
}

TEST_F(DmaTest, DiskRoundTrip)
{
    // Put a pattern in frame 2, write it to block 7, zero the frame,
    // read the block back.
    for (std::uint32_t i = 0; i < 1024; ++i)
        mem.writeWord(PhysAddr(2 * 4096 + 4 * i), i * 3);
    dma.drain(disk.writeBlock(7, PhysAddr(2 * 4096)));
    for (std::uint32_t i = 0; i < 1024; ++i)
        mem.writeWord(PhysAddr(2 * 4096 + 4 * i), 0);

    dma.drain(disk.readBlock(7, PhysAddr(2 * 4096)));
    for (std::uint32_t i = 0; i < 1024; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(2 * 4096 + 4 * i)), i * 3);
}

TEST_F(DmaTest, DiskUnwrittenBlocksReadAsZero)
{
    mem.writeWord(PhysAddr(0x3000), 123);
    dma.drain(disk.readBlock(99, PhysAddr(0x3000)));
    EXPECT_EQ(mem.readWord(PhysAddr(0x3000)), 0u);
}

TEST_F(DmaTest, DiskPeekMatchesStored)
{
    mem.writeWord(PhysAddr(0x1000), 0xabcd);
    dma.drain(disk.writeBlock(3, PhysAddr(0x1000)));
    EXPECT_EQ(disk.peekWord(3, 0), 0xabcdu);
    EXPECT_EQ(disk.peekWord(3, 1), 0u);
    EXPECT_EQ(disk.peekWord(42, 0), 0u);  // never written
}

TEST_F(DmaTest, DiskChargesAccessCycles)
{
    Cycles before = clk.now();
    dma.drain(disk.readBlock(0, PhysAddr(0)));
    EXPECT_GE(clk.now() - before, 1000u);
}

// --- line-granular asynchronous stepping ------------------------------

TEST_F(DmaTest, StartWriteIsInvisibleUntilStepped)
{
    std::uint32_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = 100u + std::uint32_t(i);

    const DmaTicket t = dma.startWrite(PhysAddr(0x2000), data, 16);
    EXPECT_TRUE(dma.transferPending(t));
    EXPECT_EQ(dma.pendingTransfers(), 1u);
    // The command is latched but no beat has run: memory untouched.
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 0u);

    // One beat moves exactly one 32-byte line (8 words).
    EXPECT_TRUE(dma.stepTransfer(t));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 100u + i);
    for (int i = 8; i < 16; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 0u);
    EXPECT_TRUE(dma.transferPending(t));

    EXPECT_TRUE(dma.stepTransfer(t));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 100u + i);
    EXPECT_FALSE(dma.transferPending(t));
    EXPECT_EQ(dma.pendingTransfers(), 0u);
    EXPECT_FALSE(dma.stepTransfer(t));
}

TEST_F(DmaTest, BeatsStopAtLineBoundaries)
{
    // A transfer starting mid-line first fills to the line boundary:
    // 0x2010 is word 4 of its 32-byte line, so the beats are 4+8+4.
    std::uint32_t data[16] = {};
    const DmaTicket t = dma.startWrite(PhysAddr(0x2010), data, 16);

    auto beat = dma.nextBeat();
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->id, t.id());
    EXPECT_EQ(beat->pa.value, 0x2010u);
    EXPECT_EQ(beat->nwords, 4u);
    EXPECT_TRUE(beat->deviceWrites);

    EXPECT_TRUE(dma.stepTransfer(t));
    beat = dma.nextBeat();
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->pa.value, 0x2020u);
    EXPECT_EQ(beat->nwords, 8u);

    EXPECT_TRUE(dma.stepTransfer(t));
    beat = dma.nextBeat();
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->pa.value, 0x2040u);
    EXPECT_EQ(beat->nwords, 4u);

    EXPECT_TRUE(dma.stepTransfer(t));
    EXPECT_FALSE(dma.nextBeat().has_value());
}

TEST_F(DmaTest, StepTransferTargetsOneTransfer)
{
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) {
        a[i] = 1;
        b[i] = 2;
    }
    DmaTicket ta = dma.startWrite(PhysAddr(0x1000), a, 8);
    const DmaTicket tb = dma.startWrite(PhysAddr(0x3000), b, 8);
    EXPECT_EQ(dma.pendingTransfers(), 2u);

    // Step the *younger* transfer: the older one stays untouched.
    EXPECT_TRUE(dma.stepTransfer(tb));
    EXPECT_EQ(mem.readWord(PhysAddr(0x3000)), 2u);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1000)), 0u);
    EXPECT_TRUE(dma.transferPending(ta));
    EXPECT_FALSE(dma.transferPending(tb));
    EXPECT_FALSE(dma.stepTransfer(tb));

    dma.drain(std::move(ta));
    EXPECT_EQ(mem.readWord(PhysAddr(0x1000)), 1u);
    EXPECT_EQ(dma.pendingTransfers(), 0u);
}

TEST_F(DmaTest, AsyncReadObservesMemoryAtBeatTime)
{
    // The consistency window the model checker explores: data written
    // to memory between command and beat IS seen; data written after
    // the beat is NOT.
    std::uint32_t out[16] = {};
    const DmaTicket t = dma.startRead(PhysAddr(0x4000), out, 16);

    mem.writeWord(PhysAddr(0x4000), 7u);  // before beat 0: visible
    EXPECT_TRUE(dma.stepTransfer(t));
    mem.writeWord(PhysAddr(0x4004), 9u);  // after beat 0: lost
    mem.writeWord(PhysAddr(0x4020), 11u); // before beat 1: visible
    EXPECT_TRUE(dma.stepTransfer(t));

    EXPECT_EQ(out[0], 7u);
    EXPECT_EQ(out[1], 0u);
    EXPECT_EQ(out[8], 11u);
}

TEST_F(DmaTest, AsyncCompletionCallbackRunsAfterFinalBeat)
{
    std::uint32_t data[8] = {};
    int fired = 0;
    const DmaTicket t =
        dma.startWrite(PhysAddr(0), data, 8, [&fired]() { ++fired; });
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(dma.stepTransfer(t));
    EXPECT_EQ(fired, 1);
}

TEST_F(DmaTest, DeviceWriteEqualsStartPlusDrain)
{
    // The whole-transfer entry points must charge and count exactly
    // what start + drain does, so calibrated benches are unaffected.
    std::uint32_t data[12] = {};
    const Cycles before = clk.now();
    dma.deviceWrite(PhysAddr(0x1000), data, 12);
    const Cycles syncCost = clk.now() - before;

    const Cycles asyncStart = clk.now();
    dma.drain(dma.startWrite(PhysAddr(0x1000), data, 12));
    EXPECT_EQ(clk.now() - asyncStart, syncCost);
    EXPECT_EQ(syncCost, DmaCosts{}.setup + 12 * DmaCosts{}.perWord);

    EXPECT_EQ(stats.value("dma.device_writes"), 2u);
    EXPECT_EQ(stats.value("dma.words_moved"), 24u);
}

// --- the ticket: every started transfer is drained ----------------------

TEST_F(DmaTest, CompletedTicketsDieSilently)
{
    std::uint32_t data[8] = {};
    {
        // A zero-word command completes at setup time.
        const DmaTicket empty = dma.startWrite(PhysAddr(0x1000), data, 0);
        EXPECT_FALSE(dma.transferPending(empty));
    }
    {
        // Stepped to completion without drain(): nothing is pending.
        const DmaTicket t = dma.startRead(PhysAddr(0x1000), data, 8);
        while (dma.stepTransfer(t)) {
        }
        EXPECT_FALSE(dma.transferPending(t));
    }
    EXPECT_EQ(dma.pendingTransfers(), 0u);
}

TEST_F(DmaTest, AbandonDropsRemainingBeatsUnrun)
{
    std::uint32_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = 50u + std::uint32_t(i);
    int fired = 0;
    DmaTicket t = dma.startWrite(PhysAddr(0x2000), data, 16,
                                 [&fired]() { ++fired; });
    EXPECT_TRUE(dma.stepTransfer(t));
    const Cycles before = clk.now();

    dma.abandon(std::move(t));
    EXPECT_EQ(dma.pendingTransfers(), 0u);
    EXPECT_EQ(clk.now(), before);  // the second beat never ran
    EXPECT_EQ(mem.readWord(PhysAddr(0x2000)), 50u);
    EXPECT_EQ(mem.readWord(PhysAddr(0x2020)), 0u);
    EXPECT_EQ(fired, 0);
}

/** The early-return shape: one branch leaves without draining. */
void
flushUnlessFast(DmaEngine &dma, bool fast_path)
{
    std::uint32_t data[16] = {};
    DmaTicket ticket = dma.startWrite(PhysAddr(0x2000), data, 16);
    if (fast_path)
        return;
    dma.drain(std::move(ticket));
}

TEST_F(DmaTest, EarlyReturnWithoutDrainDies)
{
    flushUnlessFast(dma, false);
    EXPECT_EQ(dma.pendingTransfers(), 0u);
    EXPECT_DEATH(flushUnlessFast(dma, true),
                 "DMA transfer 2 \\(dma-wr pa=0x2000, 0 of 16 words "
                 "moved\\) dropped with beats pending");
}

/** A helper that starts a transfer and hands the ticket up. */
DmaTicket
beginFlush(DmaEngine &dma)
{
    std::uint32_t data[8] = {};
    return dma.startWrite(PhysAddr(0x1000), data, 8);
}

TEST_F(DmaTest, CallerDroppingHelperTicketDies)
{
    dma.drain(beginFlush(dma));
    // Discarding the result does not compile (see
    // dma_ticket_misuse.cc); even an explicit void cast dies.
    EXPECT_DEATH(static_cast<void>(beginFlush(dma)),
                 "DMA transfer 2 .* dropped with beats pending");
}

TEST_F(DmaTest, LambdaDroppingTicketDies)
{
    std::uint32_t data[16] = {};
    const auto deferred = [this, &data] {
        const DmaTicket ticket =
            dma.startRead(PhysAddr(0x3000), data, 16);
        dma.stepTransfer(ticket);  // one beat of two
    };
    EXPECT_DEATH(deferred(),
                 "DMA transfer 1 \\(dma-rd pa=0x3000, 8 of 16 words "
                 "moved\\) dropped with beats pending");
}

TEST_F(DmaTest, ExceptionUnwindsThroughUndrainedTicket)
{
    std::uint32_t data[16] = {};
    const auto failing = [this, &data] {
        const DmaTicket ticket =
            dma.startWrite(PhysAddr(0x2000), data, 16);
        dma.stepTransfer(ticket); // one beat of two
        throw std::runtime_error("run failed mid-transfer");
    };
    // The ticket dies while the exception unwinds: it must let the
    // exception through to the caller's handler, not abort.
    EXPECT_THROW(failing(), std::runtime_error);
    EXPECT_EQ(dma.pendingTransfers(), 1u);
}

} // anonymous namespace
} // namespace vic
