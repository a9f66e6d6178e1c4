/**
 * @file
 * DMA engine.
 *
 * Transfers data between devices and physical memory. By default it
 * does NOT snoop the caches — the paper's machine: "I/O devices that
 * rely on DMA do not snoop the cache" (Section 1.1) — so the operating
 * system must flush dirty lines before a DMA-read and purge shadowing
 * lines around a DMA-write. A snooping mode implements the Section 3.3
 * variant in which DMA can access the cache, letting tests and the
 * architecture ablation show that the OS-level operations become
 * unnecessary there.
 *
 * Transfers are asynchronous at line granularity: startWrite/startRead
 * enqueue a pending transfer whose beats (one cache line of words
 * each) run one at a time under stepTransfer(). This is what lets the
 * interleaving model checker (src/mc) overlap DMA with CPU execution
 * and expose mid-transfer consistency windows.
 *
 * Every start returns a DmaTicket, and "every started transfer is
 * drained" is enforced by that type rather than by convention: the
 * ticket is move-only and [[nodiscard]], drain() consumes it, and
 * destroying it while the transfer still has beats pending fails an
 * assertion naming the transfer. Without the drain the kernel would
 * unwire a frame the device is still reading or writing. A ticket an
 * exception unwinds through does not assert, so the exception reaches
 * its handler (the experiment engine's per-run catch) instead of
 * aborting the process.
 */

#ifndef VIC_DMA_DMA_ENGINE_HH
#define VIC_DMA_DMA_ENGINE_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/event_log.hh"
#include "common/observer.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/physical_memory.hh"

namespace vic
{

/** Cycle costs of a DMA transfer. */
struct DmaCosts
{
    Cycles setup = 100;  ///< per-transfer command overhead on the CPU
    Cycles perWord = 1;  ///< bus cycles per 32-bit word moved
};

/** Handle identifying one in-flight transfer. Never reused. */
using DmaTransferId = std::uint64_t;

class DmaEngine;

/**
 * The one owner of a started transfer. DmaEngine::drain or
 * DmaEngine::abandon consumes it; a ticket whose transfer has
 * completed (every beat stepped, or a zero-word command) may also
 * simply go out of scope. Destroying or overwriting a ticket while
 * its transfer still has beats pending is a simulator bug and fails a
 * vic_assert — unless an exception thrown after the transfer started
 * is unwinding the stack. A default-constructed ticket names no
 * transfer.
 */
class [[nodiscard]] DmaTicket
{
  public:
    DmaTicket() = default;
    DmaTicket(DmaTicket &&other) noexcept;
    DmaTicket &operator=(DmaTicket &&other) noexcept;
    DmaTicket(const DmaTicket &) = delete;
    DmaTicket &operator=(const DmaTicket &) = delete;
    ~DmaTicket();

    DmaTransferId id() const { return transfer; }

  private:
    friend class DmaEngine;

    DmaTicket(DmaEngine *owner, DmaTransferId id)
        : engine(owner), transfer(id),
          uncaughtAtStart(std::uncaught_exceptions())
    {
    }

    /** Assert the transfer has no beats pending (unless an exception
     *  newer than the ticket is in flight), then let go of it. */
    void release();

    DmaEngine *engine = nullptr; ///< null once released
    DmaTransferId transfer = 0;
    /** std::uncaught_exceptions() when the transfer started. */
    int uncaughtAtStart = 0;
};

class DmaEngine
{
  public:
    DmaEngine(const DmaCosts &dma_costs, PhysicalMemory &memory,
              CycleClock &clock, StatSet &stat_set);

    /** Register a cache to keep coherent (enables snooping mode). */
    void attachSnoopedCache(Cache *cache);

    /** @return true iff at least one cache is snooped. */
    bool snooping() const { return !snooped.empty(); }

    /** Install the transfer observer (consistency oracle). */
    void setObserver(MemoryObserver *obs) { observer = obs; }

    /** Attach the machine's event log; transfers are recorded when it
     *  is enabled (one guarded branch per transfer, not per word). */
    void setEventLog(EventLog *log) { evlog = log; }

    /** Beat granularity in bytes (the machine sets this to its cache
     *  line size). Must be a multiple of 4. */
    void setBeatBytes(std::uint32_t bytes);
    std::uint32_t beatBytes() const { return beatSize; }

    // ------------------------------------------------------------------
    // Asynchronous line-granular transfers
    // ------------------------------------------------------------------

    /**
     * Begin a DMA-write: the device will deposit @p nwords words into
     * memory starting at @p pa, one line-sized beat per step. The data
     * is copied out of @p words immediately (the device latches its
     * buffer at command time), so the caller's storage may be reused.
     * The per-transfer setup cost is charged now; each beat charges
     * its word-move cost when stepped. @p on_complete (optional) runs
     * after the final beat.
     */
    DmaTicket startWrite(PhysAddr pa, const std::uint32_t *words,
                         std::uint32_t nwords,
                         std::function<void()> on_complete = {});

    /**
     * Begin a DMA-read: the device will read @p nwords words from the
     * memory system starting at @p pa into @p out, one beat per step.
     * @p out must stay valid until the transfer completes.
     */
    DmaTicket startRead(PhysAddr pa, std::uint32_t *out,
                        std::uint32_t nwords,
                        std::function<void()> on_complete = {});

    /** Number of transfers with beats still pending. */
    std::size_t pendingTransfers() const { return queue.size(); }

    /** @return true iff @p ticket's transfer has beats pending. */
    bool transferPending(const DmaTicket &ticket) const;

    /** The next beat a transfer would execute (for schedulers). */
    struct BeatInfo
    {
        DmaTransferId id = 0;
        PhysAddr pa;               ///< first word of the beat
        std::uint32_t nwords = 0;  ///< words the beat moves
        bool deviceWrites = false; ///< true: device->memory (DMA-write)
    };

    /** Peek the next beat of the @p queue_index-th pending transfer
     *  (0 = oldest); nullopt if out of range. */
    std::optional<BeatInfo> nextBeat(std::size_t queue_index = 0) const;

    /** Execute one beat of @p ticket's transfer.
     *  @return false iff it has no pending beats. */
    bool stepTransfer(const DmaTicket &ticket);

    /** Run @p ticket's transfer to completion and consume the ticket. */
    void drain(DmaTicket &&ticket);

    /**
     * Consume @p ticket WITHOUT running its remaining beats: the
     * transfer leaves the queue as if the device were reset, memory
     * keeps only the beats already moved, and the completion callback
     * never runs. For tearing a machine down partway through a
     * schedule (the model checker's explorer does this on every
     * branch); a simulated kernel always drains.
     */
    void abandon(DmaTicket &&ticket);

    // ------------------------------------------------------------------
    // Whole transfers (start + immediate drain)
    // ------------------------------------------------------------------

    /**
     * DMA-write: the device deposits @p nwords words into memory
     * starting at @p pa (e.g. a disk read completing). In snooping mode
     * the matching cache lines are invalidated.
     */
    void deviceWrite(PhysAddr pa, const std::uint32_t *words,
                     std::uint32_t nwords);

    /**
     * DMA-read: the device reads @p nwords words from the memory system
     * starting at @p pa (e.g. a disk write being issued). In snooping
     * mode dirty cache lines are written back first so the device sees
     * current data; otherwise the device sees whatever memory holds.
     */
    void deviceRead(PhysAddr pa, std::uint32_t *out,
                    std::uint32_t nwords);

  private:
    friend class DmaTicket;

    struct Transfer
    {
        DmaTransferId id = 0;
        bool deviceWrites = false;
        PhysAddr pa;
        std::vector<std::uint32_t> buf; ///< device data (writes only)
        std::uint32_t *out = nullptr;   ///< destination (reads only)
        std::uint32_t done = 0;         ///< words already moved
        std::uint32_t nwords = 0;
        std::function<void()> onComplete;
    };

    DmaCosts costs;
    PhysicalMemory &mem;
    CycleClock &clk;
    std::vector<Cache *> snooped;
    MemoryObserver *observer = nullptr;
    EventLog *evlog = nullptr;
    std::uint32_t beatSize = 32;

    std::deque<Transfer> queue; ///< FIFO of incomplete transfers
    DmaTransferId nextId = 1;

    Counter &statWrites;
    Counter &statReads;
    Counter &statWordsMoved;

    DmaTicket start(bool device_writes, PhysAddr pa,
                    const std::uint32_t *words, std::uint32_t *out,
                    std::uint32_t nwords,
                    std::function<void()> on_complete);

    /** Queue index of @p ticket's transfer, or queue.size() if it has
     *  no beats pending here. */
    std::size_t indexOf(const DmaTicket &ticket) const;

    /** Words the next beat of @p t moves (up to its line boundary). */
    std::uint32_t beatWords(const Transfer &t) const;

    /** Execute one beat of queue entry @p index, retiring the transfer
     *  (and running its completion callback) after the final beat. */
    void executeBeat(std::size_t index);
};

} // namespace vic

#endif // VIC_DMA_DMA_ENGINE_HH
