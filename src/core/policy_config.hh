/**
 * @file
 * Consistency-management policy configuration.
 *
 * The paper evaluates six cumulative kernel configurations (Table 4):
 *
 *   A  "old": eager, alignment-oblivious management that assumes a
 *      physically indexed cache (Section 2.5)
 *   B  +lazy unmap: delay flush/purge until a virtual address is reused
 *   C  +align pages: kernel selects aligning virtual addresses for
 *      multiply mapped pages (IPC, Unix-server shared pages)
 *   D  +aligned prepare: copy/zero-fill through a virtual address that
 *      aligns with the page's ultimate mapping
 *   E  +need data: purge instead of flush when dirty data is dead
 *   F  +will overwrite: skip the purge when the destination cache page
 *      is about to be overwritten entirely
 *
 * and compares against four other systems (Table 5): Utah, Tut, Apollo
 * and Sun. All are expressed as instances of this configuration
 * struct; the pmap strategy (classic eager vs lazy state-machine) plus
 * OS-level address-selection flags reproduce each system's behaviour.
 */

#ifndef VIC_CORE_POLICY_CONFIG_HH
#define VIC_CORE_POLICY_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/free_page_list.hh"

namespace vic
{

/** Which machine-dependent (pmap) strategy manages the cache. */
enum class PmapKind : std::uint8_t
{
    /** Case-by-case eager management without explicit cache-page
     *  state: break aliases on write, clean the cache when mappings
     *  are broken (the "old" system, Utah/Apollo/Sun style). */
    Classic,
    /** The paper's contribution: cache-page state machine with lazy,
     *  delayed consistency operations (Figure 1). */
    Lazy,
};

struct PolicyConfig
{
    std::string name = "unnamed";

    PmapKind pmapKind = PmapKind::Lazy;

    // --- Classic pmap options ---
    /** Flush/purge the cache page whenever a mapping is removed
     *  (Utah/Apollo/Sun). When false with Classic, consistency work is
     *  delayed until the frame is remapped (Tut's lazy unmap). */
    bool cleanOnUnmap = true;
    /** Track only the frame's last virtual address, not its cache
     *  page: on remap, skip consistency work only if the new VA equals
     *  the old one (Tut). When false, an aligned (same-colour) remap
     *  also skips the work. */
    bool equalVaOnly = false;
    /** Break (and clean) even aligned aliases on write. Models the Sun
     *  system, which supports arbitrary aliases only by making them
     *  uncacheable; we approximate "uncacheable" by allowing at most
     *  one usable mapping at a time. */
    bool breakAlignedAliases = false;
    /** TESTING ONLY: skip alias handling and unmap cleaning entirely —
     *  manage the virtually indexed cache as if it were physically
     *  indexed with no compensation. A machine run under this policy
     *  MUST produce oracle violations on aliasing workloads; the tests
     *  use it to prove the simulator actually reproduces the failure
     *  modes the paper describes (non-vacuity of the green results). */
    bool brokenNoConsistency = false;

    // --- Lazy pmap options ---
    /** Replace the flush of a dead dirty page by a purge (config E). */
    bool useNeedData = false;
    /** Elide the purge of a stale page that will be completely
     *  overwritten (config F). */
    bool useWillOverwrite = false;
    /** Infer cache_dirty from the hardware page-modified bit when one
     *  cache page is mapped, instead of write-protecting to catch the
     *  first store (Section 4.1 optimisation). */
    bool useModifiedBit = true;

    // --- OS-level address selection ---
    /** IPC page transfers pick a destination address that aligns with
     *  the source (config C). */
    bool alignIpc = false;
    /** Unix-server shared pages allocated at kernel-chosen aligning
     *  addresses instead of fixed ones (config C). */
    bool alignSharedPages = false;
    /** Page preparation (copy/zero-fill) goes through a kernel address
     *  aligned with the page's ultimate mapping (config D). */
    bool alignedPrepare = false;
    /** Align text (instruction) pages only — Tut aligns program text
     *  but nothing else. */
    bool alignTextOnly = false;

    /** Free page list organisation (ablation A2; the paper's measured
     *  systems all use a single list). */
    FreePageList::Organisation freeListOrg =
        FreePageList::Organisation::Single;

    bool operator==(const PolicyConfig &) const = default;

    // --- Named configurations ---
    static PolicyConfig configA();
    static PolicyConfig configB();
    static PolicyConfig configC();
    static PolicyConfig configD();
    static PolicyConfig configE();
    static PolicyConfig configF();

    /** The six Table 4 configurations, in order. */
    static std::vector<PolicyConfig> table4Sweep();

    // --- Related-work systems (Table 5) ---
    static PolicyConfig cmu();    ///< this paper (== configF)
    static PolicyConfig utah();   ///< eager Mach (== configA)
    static PolicyConfig tut();    ///< HP Tut: per-VA state, lazy unmap
    static PolicyConfig apollo(); ///< OSF/1: eager clean on unmap
    static PolicyConfig sun();    ///< 4.2BSD Sun-3: constrained aliases

    /** The five Table 5 systems, in the paper's order. */
    static std::vector<PolicyConfig> table5Systems();

    /** The deliberately unsound policy (testing only). */
    static PolicyConfig broken();

    /**
     * The hardware-coherent "no software ops" policy: the pmap issues
     * no consistency flushes or purges at all, because the machine it
     * pairs with resolves every failure mode in hardware — a MESI bus
     * between the CPUs' caches, reverse-lookup synonym self-snoops,
     * instruction caches on the bus, and snooping DMA. Only sound on a
     * machine with all of synonymCoherence + ifetchCoherence +
     * dmaSnoops set (the head-to-head bench constructs exactly that);
     * on the default machine it behaves like broken().
     */
    static PolicyConfig hardware();
};

} // namespace vic

#endif // VIC_CORE_POLICY_CONFIG_HH
