/**
 * @file
 * Simulated CPU.
 *
 * Issues loads, stores and instruction fetches against the machine
 * through the staged access pipeline (DESIGN.md "Access pipeline"):
 *
 *   translate -> protect -> index -> tag-check -> account
 *
 * The common case — TLB hit, protection allows — runs straight-line
 * through pre-resolved component references into Cache::read/write,
 * whose hit completes inline and whose miss continues from the same
 * probe; there is no page-table walk (the TLB hands back a mutable PTE
 * handle, so referenced/modified bits are set directly). Only unmapped
 * pages and protection traps fall back to the slow path, whose
 * trap-and-retry loop is the mechanism by which the consistency
 * algorithm interposes on exactly the accesses that need cache state
 * transitions.
 *
 * Every access reaches the observer behind a single null check, so
 * observability costs one predictable branch when off.
 *
 * The range calls (loadRange(), storeRange(), ifetchRange()) are
 * semantically identical to a loop of load()/store()/ifetch() — same
 * stats, cycles, faults and observer callbacks, in the same order —
 * but charge their host work per cache line: the first word of each
 * line goes through access(), and the rest of that line's words are
 * charged as one run of TLB and cache hits, since nothing can run
 * between them (observers are passive, DMA runs only from drain(), and
 * another CPU runs only when the kernel drives it). The observer still
 * sees every word. Write-through stores stay per word.
 *
 * copyRange() is the page copy's loop, store(dst + 4k, load(src + 4k)),
 * charged per line pair the same way: the first pair of each source
 * and destination line pair goes through access() twice, and the rest
 * of the pair's words are one copy run — TLB hits on the page pair
 * (Tlb::repeatPair) plus a cache hit run or conflict run
 * (Cache::copyRun; on a bus or with synonym self-snoop too, where a
 * conflict run also counts its idle bus transactions) — or, when
 * neither closed form applies (write-through, a set-associative
 * conflict, the TLB pair not in place), word by word. The observer
 * gets every (load, store) pair, in order.
 */

#ifndef VIC_MACHINE_CPU_HH
#define VIC_MACHINE_CPU_HH

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

    /** One access of kind @p type to the aligned word at @p va;
     *  @p store_value is the data of a store and ignored otherwise.
     *  @return the loaded or fetched word (0 for a store). */
    std::uint32_t access(AccessType type, VirtAddr va,
                         std::uint32_t store_value);

    /** Issue @p count loads at @p base, @p base + @p stride_bytes, ...
     *  @p stride_bytes must be a multiple of 4. */
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

    /** Copy @p words words: for k = 0, 1, ...,
     *  store(@p dst + 4k, load(@p src + 4k)). */
    void copyRange(VirtAddr dst, VirtAddr src, std::uint32_t words);

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

    /** The physical address of @p va under its translation @p pte. */
    PhysAddr
    physOf(const PageTableEntry *pte, VirtAddr va) const
    {
        return PhysAddr(pte->frame * pageBytesC +
                        (va.value & pageOffsetMask));
    }

    /** Stages index/tag-check/account for a translated, permitted
     *  access. */
    std::uint32_t accessMapped(AccessType type, VirtAddr va,
                               std::uint32_t store_value,
                               PageTableEntry *pte);

    /** The loop shared by the range calls: store i writes
     *  @p seed + i * @p seed_step. */
    void accessRange(AccessType type, VirtAddr base, std::uint32_t count,
                     std::uint32_t stride_bytes, std::uint32_t seed,
                     std::uint32_t seed_step);

    /** Charge the @p n words at @p va + k * @p stride_bytes (k = 1..n)
     *  that follow the word access() just completed at @p va, all in
     *  its cache line, as one run of hits; store k writes
     *  @p value + k * @p value_step. */
    void lineRun(AccessType type, Cache &cache, VirtAddr va,
                 std::uint32_t n, std::uint32_t stride_bytes,
                 std::uint32_t value, std::uint32_t value_step);

    /** Charge the @p n word pairs after the pair copyRange() just
     *  completed at (@p dst, @p src), all inside both lines, as one
     *  copy run. @return false, with nothing charged, if the TLB pair
     *  is not in place, a page no longer permits its access, or the
     *  cache has no closed form for the run. */
    bool copyRun(VirtAddr dst, VirtAddr src, std::uint32_t n);

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
