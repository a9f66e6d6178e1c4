/**
 * @file
 * The composed simulated machine.
 *
 * Owns physical memory, the split instruction/data caches (one pair
 * per CPU), the TLB and page table, the DMA engine with an attached
 * disk, the cycle clock and the statistics registry. Everything above
 * this layer (pmap, OS, workloads) manipulates the machine only
 * through these components.
 *
 * With more than one CPU (and MESI coherence selected, the default)
 * the data caches attach to a CoherenceBus: fills snoop the peers,
 * stores to Shared lines broadcast an upgrade, and per-line MESI
 * states track ownership. Cache pages of the SAME colour on different
 * CPUs thereby behave as one hardware-consistent set — the paper's
 * Section 3.3 multiprocessor view — while unaligned aliases within
 * any one cache remain the operating system's problem, with unchanged
 * transition rules (unless synonymCoherence puts those in hardware
 * too, and ifetchCoherence does the same for the instruction caches).
 */

#ifndef VIC_MACHINE_MACHINE_HH
#define VIC_MACHINE_MACHINE_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "common/cycle_clock.hh"
#include "common/event_log.hh"
#include "common/observer.hh"
#include "common/stats.hh"
#include "dma/disk.hh"
#include "dma/dma_engine.hh"
#include "machine/machine_params.hh"
#include "mem/physical_memory.hh"
#include "mmu/page_table.hh"
#include "tlb/tlb.hh"

namespace vic
{

class Machine
{
  public:
    explicit Machine(const MachineParams &machine_params);

    const MachineParams &params() const { return mparams; }
    std::uint32_t pageBytes() const { return mparams.pageBytes; }
    std::uint32_t numCpus() const { return mparams.numCpus; }

    StatSet &stats() { return statSet; }
    EventLog &events() { return eventLog; }
    CycleClock &clock() { return cycleClock; }
    PhysicalMemory &memory() { return *physMem; }
    PageTable &pageTable() { return *pgTable; }
    /** CPU @p cpu's TLB (each processor translates privately). */
    Tlb &tlb(std::uint32_t cpu = 0) { return *tlbs.at(cpu); }

    /** TLB shootdown: drop one page's entry on every CPU (the
     *  cross-processor interrupt a real pmap would send). */
    void tlbShootdownPage(SpaceVa key);

    /** TLB shootdown for a whole address space. */
    void tlbShootdownSpace(SpaceId space);
    DmaEngine &dma() { return *dmaEngine; }
    Disk &disk() { return *diskDev; }

    /** CPU @p cpu's data cache. */
    Cache &dcache(std::uint32_t cpu = 0) { return *dataCaches.at(cpu); }

    /** CPU @p cpu's instruction cache. */
    Cache &icache(std::uint32_t cpu = 0) { return *instCaches.at(cpu); }

    /** The cache a reference of kind @p kind on CPU @p cpu uses. */
    Cache &
    cacheFor(CacheKind kind, std::uint32_t cpu = 0)
    {
        return kind == CacheKind::Data ? dcache(cpu) : icache(cpu);
    }

    /** The snooping MESI bus connecting the caches, or nullptr on an
     *  uncoherent machine (uniprocessor without ifetchCoherence, or
     *  cpuCoherence == None). */
    CoherenceBus *coherenceBus() const { return cohBus.get(); }

    /** Install the transfer observer on CPU and DMA paths. */
    void setObserver(MemoryObserver *obs);

    MemoryObserver *observer() const { return memObserver; }

    /** Elapsed simulated seconds at the configured clock rate. */
    double elapsedSeconds() const
    { return double(cycleClock.now()) / mparams.clockHz; }

    /** Physical address of (frame, offset). */
    PhysAddr frameAddr(FrameId frame, std::uint64_t offset = 0) const
    { return PhysAddr(frame * mparams.pageBytes + offset); }

  private:
    MachineParams mparams;
    StatSet statSet;
    EventLog eventLog;
    CycleClock cycleClock;
    std::unique_ptr<PhysicalMemory> physMem;
    std::unique_ptr<PageTable> pgTable;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    std::vector<std::unique_ptr<Cache>> dataCaches;
    std::vector<std::unique_ptr<Cache>> instCaches;
    std::unique_ptr<CoherenceBus> cohBus;
    std::unique_ptr<DmaEngine> dmaEngine;
    std::unique_ptr<Disk> diskDev;
    MemoryObserver *memObserver = nullptr;
};

} // namespace vic

#endif // VIC_MACHINE_MACHINE_HH
