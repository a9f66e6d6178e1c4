/**
 * @file
 * Machine configuration.
 *
 * The default configuration is a scaled-down HP 9000 Series 700 Model
 * 720: separate direct-mapped, virtually indexed, physically tagged
 * instruction and data caches; write-back data cache; DMA that does not
 * snoop; 50 MHz clock. Cache capacities are smaller than the real
 * machine's (64 KB instead of 256 KB data / 128 KB instruction) so the
 * synthetic workloads exercise capacity effects at their scaled size;
 * the number of cache colours (cache pages) stays well above one, which
 * is what the consistency problem depends on. Benches that sweep
 * architecture variants (Section 3.3) override individual fields.
 */

#ifndef VIC_MACHINE_MACHINE_PARAMS_HH
#define VIC_MACHINE_MACHINE_PARAMS_HH

#include <cstdint>

#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "common/types.hh"
#include "dma/dma_engine.hh"

namespace vic
{

struct MachineParams
{
    // --- physical memory ---
    /** 2 MB at 4 KB pages: small enough that the workloads cycle
     *  physical pages through the free list (as the paper's real
     *  workloads did on a loaded machine), which is what makes
     *  new-mapping consistency work visible. */
    std::uint64_t numFrames = 512;
    std::uint32_t pageBytes = 4096;

    // --- data cache ---
    std::uint64_t dcacheBytes = 64 * 1024;
    std::uint32_t dcacheLineBytes = 32;
    std::uint32_t dcacheWays = 1;
    Indexing dcacheIndexing = Indexing::Virtual;
    WritePolicy dcachePolicy = WritePolicy::WriteBack;
    CacheCosts dcacheCosts = {};

    // --- instruction cache ---
    std::uint64_t icacheBytes = 64 * 1024;
    std::uint32_t icacheLineBytes = 32;
    std::uint32_t icacheWays = 1;
    Indexing icacheIndexing = Indexing::Virtual;
    CacheCosts icacheCosts = {};  ///< uniformOpCost set in hp720()

    // --- TLB ---
    std::uint32_t tlbEntries = 96;
    Cycles tlbMissPenalty = 20;

    // --- traps ---
    Cycles trapCycles = 150;  ///< kernel entry/exit around a fault
    /** Software bookkeeping charged per pmap consistency invocation
     *  (bit-vector updates, protection walks). */
    Cycles pmapOverheadCycles = 40;

    // --- DMA and disk ---
    DmaCosts dmaCosts = {};
    Cycles diskAccessCycles = 2500;
    bool dmaSnoops = false;  ///< Section 3.3 coherent-DMA variant

    // --- multiprocessing ---
    /** Number of CPUs, each with private I/D caches. With more than
     *  one, the data caches are kept coherent per cpuCoherence,
     *  modelling the Section 3.3 "cache-coherent multiprocessor" in
     *  which equivalent cache pages across processors form a
     *  hardware-consistent set. */
    std::uint32_t numCpus = 1;
    /** Inter-cache CPU coherence protocol (multiprocessors only). */
    enum class CpuCoherence : std::uint8_t
    {
        None, ///< caches drift — software must manage them (testing)
        Mesi, ///< write-invalidate snooping bus with MESI line states
    };
    CpuCoherence cpuCoherence = CpuCoherence::Mesi;
    /** Bus cycles charged per cross-cache snoop intervention. */
    Cycles snoopPenalty = 10;
    /** Reverse-lookup synonym coherence: each cache self-snoops its
     *  other candidate sets at fill time so unaligned aliases cannot
     *  hold two copies of a physical line (arXiv 2108.00444). Part of
     *  the "no software consistency ops" hardware configuration. */
    bool synonymCoherence = false;
    /** Put the instruction caches on the coherence bus as read-only
     *  ports, so stores invalidate stale instruction copies in
     *  hardware instead of via software flush/purge pairs. Needs a
     *  write-back data cache, whose store misses and upgrades are the
     *  bus transactions that do the invalidating. */
    bool ifetchCoherence = false;

    /** True iff CPU/CPU conflicting accesses through *different*
     *  caches are kept coherent by hardware under these parameters. */
    bool
    providesCpuCoherence() const
    {
        return numCpus < 2 || cpuCoherence == CpuCoherence::Mesi;
    }

    // --- clock ---
    double clockHz = 50e6;  ///< Model 720: 50 MHz

    /** The default scaled-down Model 720 configuration. */
    static MachineParams hp720();

    /** Validate invariants (fatal on user error). */
    void check() const;

    /** Data cache geometry implied by these parameters. */
    CacheGeometry dcacheGeometry() const;

    /** Instruction cache geometry implied by these parameters. */
    CacheGeometry icacheGeometry() const;
};

} // namespace vic

#endif // VIC_MACHINE_MACHINE_PARAMS_HH
