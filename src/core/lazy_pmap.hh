/**
 * @file
 * The paper's consistency algorithm (Figure 1) as a pmap strategy.
 *
 * State is kept per (physical page, cache page) in the Table 3
 * encoding (PhysPageInfo). All consistency work — flushing the unique
 * dirty cache page, purging stale cache pages — is delayed until an
 * operation would otherwise observe or destroy inconsistent data, and
 * skipped entirely when virtual addresses align. Ordinary page
 * protections implement the state transitions: a cache page whose
 * state makes an access unsafe has that access revoked in every
 * mapping's page-table entry, the access traps, and the fault handler
 * runs CacheControl.
 *
 * Extensions relative to the paper's single-cache pseudo-code, per its
 * Section 4.1 discussion of the real implementation:
 *
 *  - split caches: independent mapped/stale vectors for the
 *    instruction cache; instruction fetches never align with data
 *    references, so an ifetch always forces the flush of a dirty data
 *    cache page (the "data to instruction space copy" path);
 *  - the page-modified-bit optimisation: when exactly one data cache
 *    page is mapped (and the page has never been fetched for
 *    execution since last written), writes are permitted without
 *    faulting and cache_dirty is recovered from the hardware modified
 *    bit at the next CacheControl invocation;
 *  - the will_overwrite / need_data semantic hints (configs F and E).
 *
 * The entry points' sync → plan → apply sequence is LazyRules
 * (core/lazy_rules.hh), which the static verifier runs too; this class
 * keeps the per-frame state it works on and connects it to the
 * machine.
 */

#ifndef VIC_CORE_LAZY_PMAP_HH
#define VIC_CORE_LAZY_PMAP_HH

#include <array>
#include <optional>
#include <vector>

#include "core/phys_page_info.hh"
#include "core/pmap.hh"

namespace vic
{

class LazyPmap : public Pmap
{
  public:
    LazyPmap(Machine &m, const PolicyConfig &policy_config);

    /** One cache operation the Figure 1 algorithm decided on. */
    struct PlannedOp
    {
        CacheKind cache = CacheKind::Data;
        RequiredOp op = RequiredOp::None;
        CachePageId colour = 0;

        bool operator==(const PlannedOp &) const = default;
    };

    /** The operations of one CacheControl run, in order. Stanza 2
     *  adds at most one and stanza 3 at most one, so two fit without
     *  allocating; a third panics. */
    class Plan
    {
      public:
        void push(const PlannedOp &op);
        const PlannedOp *begin() const { return ops.data(); }
        const PlannedOp *end() const { return ops.data() + count; }

      private:
        std::array<PlannedOp, 2> ops{};
        std::size_t count = 0;
    };

    /**
     * The CacheControl decision procedure (Figure 1, stanzas 2-5) as a
     * pure function of the Table 3 state: advances @p dstate /
     * @p istate to the post-operation encoding and returns the cache
     * flushes/purges that must precede the operation, in order.
     *
     * LazyRules' CacheControl runs it, in the simulator and in the
     * static protocol verifier (vic::verify) alike.
     */
    static Plan planCacheControl(
        CacheStateVector &dstate, CacheStateVector &istate, MemOp op,
        std::optional<CachePageId> d_target,
        std::optional<CachePageId> i_target, AccessType access,
        bool will_overwrite, bool need_data, bool use_need_data,
        bool use_will_overwrite);

    /**
     * The final-stanza protection rule as a pure function of the
     * Table 3 state: what one mapping of data colour @p d_colour /
     * instruction colour @p i_colour may do without trapping.
     */
    static Protection cacheStateProt(const CacheStateVector &dstate,
                                     const CacheStateVector &istate,
                                     CachePageId d_colour,
                                     CachePageId i_colour,
                                     bool use_modified_bit);

    void enter(SpaceVa va, FrameId frame, Protection vm_prot,
               AccessType access, const EnterHints &hints) override;
    void remove(SpaceVa va) override;
    void protect(SpaceVa va, Protection vm_prot) override;
    bool resolveConsistencyFault(SpaceVa va, AccessType access) override;
    void dmaRead(FrameId frame, bool need_data) override;
    void dmaWrite(FrameId frame) override;
    void frameFreed(FrameId frame) override;
    std::optional<CachePageId>
    preferredColour(FrameId frame) const override;
    std::vector<SpaceVa> mappingsOf(FrameId frame) const override;
    const char *kindName() const override { return "lazy"; }

    // --- introspection for tests and model checking ---

    /** Bookkeeping for @p frame; nullptr if the frame was never
     *  mapped. Panics if @p frame is past the machine's memory. */
    const PhysPageInfo *info(FrameId frame) const;

    /** Decoded Table 3 data-cache state of (frame, colour); Empty for
     *  untouched frames. */
    CachePageState dataState(FrameId frame, CachePageId colour) const;

    /** Decoded instruction-cache state. */
    CachePageState instState(FrameId frame, CachePageId colour) const;

  private:
    /** One frame as LazyRules sees it (core/lazy_rules.hh): its
     *  PhysPageInfo, reached through the page-table entry handles,
     *  and the machine's caches. */
    class FrameView;

    std::uint32_t dColours;
    std::uint32_t iColours;
    FrameTable<PhysPageInfo> pages;

    Counter &statSyncs;

    PhysPageInfo &getInfo(FrameId frame);

    /** The view of the frame @p pte maps; frameless if @p pte is
     *  null. */
    FrameView viewOf(const PageTableEntry *pte);

    /** Cache-state-permitted protection for one mapping (the final
     *  stanza's per-mapping decision). */
    Protection cacheProtFor(const PhysPageInfo &info,
                            const VaMapping &m) const;
};

} // namespace vic

#endif // VIC_CORE_LAZY_PMAP_HH
