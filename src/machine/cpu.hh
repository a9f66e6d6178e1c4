/**
 * @file
 * Simulated CPU.
 *
 * Issues loads, stores and instruction fetches against the machine
 * through the staged access pipeline (DESIGN.md "Access pipeline"):
 *
 *   translate -> protect -> index -> tag-check -> account
 *
 * The common case — TLB hit, protection allows, cache line present —
 * runs straight-line through pre-resolved component references with a
 * single clock advance and no page-table walk (the TLB hands back a
 * mutable PTE handle, so referenced/modified bits are set directly).
 * Everything else (unmapped pages, protection traps, cache misses,
 * multiprocessor coherence, DMA busy-bits) falls back to the slow
 * path, whose trap-and-retry loop is the mechanism by which the
 * consistency algorithm interposes on exactly the accesses that need
 * cache state transitions.
 *
 * Every access reaches the observer behind a single null check, so
 * observability costs one predictable branch when off.
 *
 * A batched API (run(), loadRange(), storeRange(), ifetchRange())
 * issues many accesses per call — semantically identical to a loop of
 * load()/store()/ifetch() (same stats, cycles, faults, observer
 * callbacks, in the same order) while amortizing per-call dispatch;
 * the OS kernel and the mc executor drive it.
 */

#ifndef VIC_MACHINE_CPU_HH
#define VIC_MACHINE_CPU_HH

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "machine/machine.hh"
#include "mmu/fault.hh"

namespace vic
{

class Cpu
{
  public:
    /** Fault handler installed by the OS. Returns true if the access
     *  should be retried, false if it must abort (a workload bug). */
    using FaultHandler = std::function<bool(const Fault &)>;

    /** @param cpu_id which of the machine's CPUs this is (selects the
     *  private cache pair). */
    explicit Cpu(Machine &m, std::uint32_t cpu_id = 0);

    Machine &machine() { return mach; }

    std::uint32_t id() const { return cpuId; }

    /** Install the OS fault handler. */
    void setFaultHandler(FaultHandler handler)
    { faultHandler = std::move(handler); }

    /** Switch the current address space (context switch). */
    void setSpace(SpaceId space) { currentSpace = space; }

    SpaceId space() const { return currentSpace; }

    /** Load the aligned word at @p va in the current space. */
    std::uint32_t load(VirtAddr va);

    /** Store @p value to the aligned word at @p va. */
    void store(VirtAddr va, std::uint32_t value);

    /** Fetch the instruction word at @p va (goes through the
     *  instruction cache). */
    std::uint32_t ifetch(VirtAddr va);

    /** One decoded operation of the batched access API. */
    struct Op
    {
        AccessType type = AccessType::Load;
        VirtAddr va;
        std::uint32_t value = 0; ///< store data; ignored otherwise
    };

    /** Issue @p n operations back-to-back through the pipeline. */
    void run(const Op *ops, std::size_t n);

    /** Issue @p count loads at @p base, @p base + @p stride_bytes, ... */
    void loadRange(VirtAddr base, std::uint32_t count,
                   std::uint32_t stride_bytes);

    /** Issue @p count stores at @p base + i * @p stride_bytes of value
     *  @p seed + i * @p seed_step. */
    void storeRange(VirtAddr base, std::uint32_t count,
                    std::uint32_t stride_bytes, std::uint32_t seed,
                    std::uint32_t seed_step);

    /** Issue @p count instruction fetches with stride @p stride_bytes. */
    void ifetchRange(VirtAddr base, std::uint32_t count,
                     std::uint32_t stride_bytes);

    /** Model @p n cycles of register-only computation. */
    void compute(Cycles n) { mach.clock().advance(n); }

    /** Total faults taken (for tests). */
    std::uint64_t faultCount() const { return faultsTaken; }

  private:
    Machine &mach;
    std::uint32_t cpuId;
    SpaceId currentSpace = 0;
    FaultHandler faultHandler;
    std::uint64_t faultsTaken = 0;

    // Pre-resolved pipeline handles: fixed for the machine's lifetime,
    // resolved once at construction so the fast path never chases
    // through Machine's accessors.
    Tlb &tlbRef;
    Cache &dcacheRef;
    Cache &icacheRef;
    const std::uint64_t pageOffsetMask; ///< pageBytes - 1
    const std::uint64_t pageBytesC;     ///< pageBytes

    /** Core access path shared by load/store/ifetch. */
    std::uint32_t access(AccessType type, VirtAddr va,
                         std::uint32_t store_value);

    /** Stages index/tag-check/account for a translated, permitted
     *  access. */
    std::uint32_t accessMapped(AccessType type, VirtAddr va,
                               std::uint32_t store_value,
                               PageTableEntry *pte);

    /** Trap-and-retry loop for accesses the fast path rejected.
     *  @p pte is the (failed) translation of the first attempt. */
    std::uint32_t accessSlow(AccessType type, VirtAddr va,
                             std::uint32_t store_value,
                             PageTableEntry *pte);

    /** Deliver a fault; @return true to retry. */
    bool deliver(const Fault &fault);
};

} // namespace vic

#endif // VIC_MACHINE_CPU_HH
