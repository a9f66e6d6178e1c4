/**
 * @file
 * Observation interface for memory-system transfers.
 *
 * The paper's correctness criterion is that "the memory system never
 * transfers a stale value to either the CPU or a device" (Section 3.1).
 * Every transfer that criterion talks about — CPU loads and instruction
 * fetches, CPU stores, device reads of memory (DMA-read) and device
 * writes into memory (DMA-write) — is reported through this interface
 * so the consistency oracle can validate it against a golden model.
 *
 * Observers are passive: a callback must not call into the machine,
 * the CPUs, the caches or the TLB. The CPU's range and copy calls rely
 * on this. A range charges the words after the first of a cache line
 * as one run of hits, and a copy charges the word pairs after the
 * first of a line pair as one hit or conflict run; both are exact
 * only because nothing can run between those words. The observer
 * still receives every word, in order.
 */

#ifndef VIC_COMMON_OBSERVER_HH
#define VIC_COMMON_OBSERVER_HH

#include <cstdint>

#include "common/types.hh"

namespace vic
{

class MemoryObserver
{
  public:
    virtual ~MemoryObserver() = default;

    /** CPU load observed @p observed at physical address @p pa. */
    virtual void cpuLoad(PhysAddr pa, std::uint32_t observed)
    { (void)pa; (void)observed; }

    /** CPU instruction fetch observed @p observed at @p pa. */
    virtual void cpuIFetch(PhysAddr pa, std::uint32_t observed)
    { (void)pa; (void)observed; }

    /** CPU store of @p value to @p pa (program order defines this as
     *  the newest value of @p pa). */
    virtual void cpuStore(PhysAddr pa, std::uint32_t value)
    { (void)pa; (void)value; }

    /** A DMA device wrote @p value into memory at @p pa. */
    virtual void dmaWrite(PhysAddr pa, std::uint32_t value)
    { (void)pa; (void)value; }

    /** A DMA device read @p observed from the memory system at @p pa. */
    virtual void dmaRead(PhysAddr pa, std::uint32_t observed)
    { (void)pa; (void)observed; }
};

} // namespace vic

#endif // VIC_COMMON_OBSERVER_HH
