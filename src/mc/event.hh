/**
 * @file
 * Alphabet and footprints of the interleaving model checker.
 *
 * A scenario (src/mc/scenario.hh) is a small concurrent program over
 * the operations that the paper's consistency hazards are made of: CPU
 * accesses through the virtually indexed caches, the pmap's DMA
 * preparation calls, page busy-bit synchronisation, and asynchronous
 * line-granular DMA transfers. The executor (src/mc/executor.hh) runs
 * one operation at a time under an explicit schedule; each step
 * records the Footprint predicted for it before it runs — the physical
 * lines it reads and writes, the frames it touches, and which
 * synchronisation domain it belongs to — and asserts that it touched
 * nothing outside it. Footprints drive both the DPOR dependence
 * relation (which operations commute) and the happens-before race
 * detector.
 */

#ifndef VIC_MC_EVENT_HH
#define VIC_MC_EVENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vic::mc
{

/**
 * CPU store-visibility model a scenario is explored under.
 *
 * SC: a store becomes globally visible in the step that executes it
 * (the model PR 4 verified). WeakStoreOrder: stores retire into a
 * per-CPU FIFO store buffer at issue and become visible only when a
 * separately schedulable drain step deposits them into the memory
 * system — the write-buffered hardware the paper's choreography must
 * also survive. Fences and busy-bit acquire points force drains:
 * they are not enabled while a relevant store is still buffered.
 */
enum class MemoryOrder : std::uint8_t
{
    SC,             ///< stores visible in program order, at issue
    WeakStoreOrder, ///< stores drain asynchronously, FIFO per CPU
};

/** Human-readable memory-order name ("sc" / "weak"). */
const char *memoryOrderName(MemoryOrder order);

/** Schedulable atomic operations. DmaBeat and StoreDrain never appear
 *  in a scenario thread: beats belong to dynamic per-transfer threads
 *  created when a DmaStart* operation executes, and drains belong to
 *  dynamic per-store threads created when a store issues under
 *  MemoryOrder::WeakStoreOrder. */
enum class OpKind : std::uint8_t
{
    CpuLoad,       ///< load through the data cache
    CpuStore,      ///< store through the data cache (weak: issue)
    CpuIFetch,     ///< fetch through the instruction cache
    PmapDmaRead,   ///< pmap->dmaRead(frame): flush before device read
    PmapDmaWrite,  ///< pmap->dmaWrite(frame): purge before device write
    PmapUnmap,     ///< pmap->remove(slot va)
    BusyAcquire,   ///< set the VM page busy bit (blocks CPU accesses)
    BusyRelease,   ///< clear the busy bit
    DmaStartRead,  ///< command the device to read memory (DMA-read)
    DmaStartWrite, ///< command the device to write memory (DMA-write)
    DmaWait,       ///< wait for this thread's transfers to complete
    DmaBeat,       ///< one line-granular beat of a pending transfer
    Fence,         ///< drain this CPU's store buffer (weak order only)
    StoreDrain,    ///< one buffered store leaving the store buffer
};

/** Human-readable operation name. */
const char *opKindName(OpKind kind);

/** One operation of a scenario thread. */
struct Op
{
    OpKind kind = OpKind::CpuLoad;
    /** CPU accesses and PmapUnmap: which scenario slot (virtual page)
     *  to touch. */
    std::uint8_t slot = 0;
    /** 0 = the frame under test, 1 = the bystander frame. */
    std::uint8_t frameSel = 0;
    /** DmaStart*: transfer length in cache lines. */
    std::uint32_t lines = 1;
};

/** A statically declared scenario thread. */
struct Thread
{
    std::string name;
    std::uint32_t cpu = 0; ///< processor its CPU accesses issue on
    std::vector<Op> ops;
};

/**
 * Memory and synchronisation footprint of one step. Line sets are
 * sorted, duplicate-free physical line numbers (pa / lineBytes).
 */
struct Footprint
{
    std::vector<std::uint64_t> readLines;
    std::vector<std::uint64_t> writeLines;
    std::vector<std::uint64_t> frames; ///< frames touched or guarded

    bool cpuData = false;  ///< CPU access through a cache
    std::uint32_t cpu = 0;
    bool inst = false;          ///< instruction-cache access
    std::uint32_t colour = 0;   ///< cache colour of the accessed va
    bool dmaAccess = false;     ///< a DMA beat touching memory
    bool pmapOp = false;        ///< explicit pmap call (lock-serialised)
    bool busyAcquire = false;
    bool busyRelease = false;
    /** Weak order: the step interacts with a per-CPU store buffer
     *  (issue, drain, fence, or a load that may forward from it).
     *  Same-CPU pairs of such steps never commute — the FIFO order
     *  and forwarding results depend on which runs first. */
    bool sbOp = false;
    std::uint32_t sbCpu = 0; ///< owning CPU of the store buffer
    /** Weak order: a store's issue, which holds off every unmap of its
     *  frame until the store drains. */
    bool storeIssue = false;
    bool unmap = false; ///< a PmapUnmap (also a pmapOp)

    bool busyOp() const { return busyAcquire || busyRelease; }

    /** Insert @p line into @p set keeping it sorted and unique. */
    static void addLine(std::vector<std::uint64_t> &set,
                        std::uint64_t line);
    static void addFrame(std::vector<std::uint64_t> &set,
                         std::uint64_t frame);
};

/** @return true iff the sorted sets @p a and @p b intersect. */
bool setsIntersect(const std::vector<std::uint64_t> &a,
                   const std::vector<std::uint64_t> &b);

/** A shared physical line written by at least one side (the classic
 *  data-conflict condition), or ~0 if none. */
std::uint64_t conflictingLine(const Footprint &a, const Footprint &b);

/**
 * DPOR dependence: may the two steps fail to commute? Sound
 * over-approximation; see docs/VERIFICATION.md. Two steps are
 * dependent if they share a written physical line, are both explicit
 * pmap operations (one spinlock), interact through a busy bit on a
 * common frame, are CPU accesses through the same cache colour of the
 * same processor's same cache (eviction interaction in a direct-mapped
 * virtually indexed cache), pair a DMA beat with any CPU access
 * (DMA reads memory whose content depends on cache residency), or
 * pair a store's issue with an unmap of its frame (the issue disables
 * the unmap until the store drains).
 */
bool dependent(const Footprint &a, const Footprint &b);

/** One executed step of a schedule. */
struct StepRecord
{
    int thread = -1;     ///< dynamic thread index
    std::size_t pc = 0;  ///< op index (beat threads: beat number)
    OpKind kind = OpKind::CpuLoad;
    std::string label;   ///< "thread:op" for reports
    Footprint fp;
    bool faulted = false;          ///< the CPU access trapped
    int startedBeat = -1;          ///< beat thread a DmaStart created
    std::vector<int> joins;        ///< beat threads a DmaWait joined
};

/** A schedule: the sequence of dynamic thread indices stepped. */
using Schedule = std::vector<int>;

} // namespace vic::mc

#endif // VIC_MC_EVENT_HH
