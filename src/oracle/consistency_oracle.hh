/**
 * @file
 * Golden-model consistency checker.
 *
 * The paper's correctness criterion (Section 3.1): "a correctly
 * functioning memory system must never transfer stale data to either
 * the CPU or a DMA device." The oracle maintains a shadow copy of the
 * newest value of every physical word, updated in program order by CPU
 * stores and device writes, and checks every CPU load, instruction
 * fetch and device read against it. Any mismatch is a consistency
 * violation: a stale cache line was read, a DMA transfer was shadowed,
 * or a dirty write-back clobbered newer data.
 *
 * Tests run every workload under every policy with the oracle attached
 * and require zero violations — and run a deliberately broken policy
 * to prove the machine model actually produces (and the oracle
 * detects) the failure modes the paper describes.
 *
 * The oracle sees every simulated word, so its per-word work is inline
 * and the class is final: each callback compiles to an index check, a
 * shadow compare or store and a counter bump, and a caller that holds
 * a ConsistencyOracle (not a MemoryObserver) inlines it whole. The
 * alignment and range checks stay in every build; a failed check and
 * a violation leave the hot path for cold out-of-line functions.
 */

#ifndef VIC_ORACLE_CONSISTENCY_ORACLE_HH
#define VIC_ORACLE_CONSISTENCY_ORACLE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/observer.hh"
#include "common/types.hh"

namespace vic
{

class ConsistencyOracle final : public MemoryObserver
{
  public:
    /** @param memory_bytes size of simulated physical memory. */
    explicit ConsistencyOracle(std::uint64_t memory_bytes);

    /** A detected stale transfer. */
    struct Violation
    {
        PhysAddr pa;
        std::uint32_t expected;
        std::uint32_t observed;
        std::string kind;  ///< "cpu-load", "cpu-ifetch" or "dma-read"
    };

    // MemoryObserver interface
    void cpuLoad(PhysAddr pa, std::uint32_t observed) override
    { check(pa, observed, "cpu-load"); }
    void cpuIFetch(PhysAddr pa, std::uint32_t observed) override
    { check(pa, observed, "cpu-ifetch"); }
    void cpuStore(PhysAddr pa, std::uint32_t value) override
    { record(pa, value); }
    void dmaWrite(PhysAddr pa, std::uint32_t value) override
    { record(pa, value); }
    void dmaRead(PhysAddr pa, std::uint32_t observed) override
    { check(pa, observed, "dma-read"); }

    /** @return true iff no violation has been observed. */
    bool clean() const { return faults.empty(); }

    /** Violations recorded so far (capped at maxRecorded). */
    const std::vector<Violation> &violations() const { return faults; }

    /** Total number of violations (beyond the recording cap). */
    std::uint64_t violationCount() const { return totalViolations; }

    /** Number of transfers checked. */
    std::uint64_t checkedCount() const { return checked; }

    /** Forget all shadow state and violations. */
    void reset();

    /**
     * Install a callback invoked synchronously on every detected
     * violation (even past the recording cap). Trace-replay drivers
     * use it to attribute a violation to the event being replayed.
     * Pass nullptr to remove.
     */
    void setViolationHook(std::function<void(const Violation &)> hook)
    {
        violationHook = std::move(hook);
    }

  private:
    static constexpr std::size_t maxRecorded = 64;

    std::function<void(const Violation &)> violationHook;

    /** The newest value of each word, left uninitialized: a word is
     *  read only after defined says it was written, so set-up clears
     *  one bit per word, not the whole shadow. */
    std::uint64_t words;
    std::unique_ptr<std::uint32_t[]> shadow;
    std::vector<bool> defined;
    std::vector<Violation> faults;
    std::uint64_t totalViolations = 0;
    std::uint64_t checked = 0;

    /** Shadow index of the word at @p pa; panics unless @p pa is word
     *  aligned and inside the memory. */
    std::uint64_t
    index(PhysAddr pa) const
    {
        const std::uint64_t idx = pa.value / 4;
        if (pa.value % 4 != 0 || idx >= words) [[unlikely]]
            badAddress(pa);
        return idx;
    }

    void
    record(PhysAddr pa, std::uint32_t value)
    {
        const std::uint64_t idx = index(pa);
        shadow[idx] = value;
        defined[idx] = true;
    }

    void
    check(PhysAddr pa, std::uint32_t observed, const char *kind)
    {
        const std::uint64_t idx = index(pa);
        ++checked;
        // A word never written has nothing to compare against.
        if (defined[idx] && shadow[idx] != observed) [[unlikely]]
            violation(pa, shadow[idx], observed, kind);
    }

    /** Count one violation, record it (up to maxRecorded) and call the
     *  hook. */
    [[gnu::cold]] void violation(PhysAddr pa, std::uint32_t expected,
                                 std::uint32_t observed, const char *kind);

    /** Panic on an unaligned or out-of-range address. */
    [[noreturn, gnu::cold]] void badAddress(PhysAddr pa) const;
};

} // namespace vic

#endif // VIC_ORACLE_CONSISTENCY_ORACLE_HH
