/**
 * @file
 * Eager, case-by-case consistency management — the "old" system of
 * Section 2.5 and the related-work systems of Table 5.
 *
 * No explicit cache-page state is kept. Instead:
 *
 *  - on a write to an aliased physical page, all other mappings are
 *    broken (and their cache pages cleaned);
 *  - on a read that creates an unaligned alias, any writable mapping
 *    is broken and the new mapping is installed read-only;
 *  - whenever a mapping is broken the page is removed from the cache
 *    with a flush (if dirty) or a purge (cleanOnUnmap, the
 *    Utah/Apollo/Sun behaviour), or — in the Tut variant — the
 *    frame's cache residue is remembered and cleaned when the frame
 *    is remapped at a non-matching address (equal-address-only reuse).
 *
 * Compared with the paper's lazy state machine this performs strictly
 * more cache operations; Table 1/Table 4/Table 5 quantify the gap.
 */

#ifndef VIC_CORE_CLASSIC_PMAP_HH
#define VIC_CORE_CLASSIC_PMAP_HH

#include <optional>
#include <span>
#include <vector>

#include "core/phys_page_info.hh"
#include "core/pmap.hh"

namespace vic
{

class ClassicPmap : public Pmap
{
  public:
    ClassicPmap(Machine &m, const PolicyConfig &policy_config);

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
    const char *kindName() const override { return "classic"; }

    /** The live mappings of @p frame, each with its page-table entry
     *  handle. Panics if @p frame is past the machine's memory. */
    std::span<const VaMapping> mappingList(FrameId frame) const;

  private:
    /** What the frame may have left in the cache after its mappings
     *  were (lazily) removed — Tut-style per-virtual-address state. */
    struct Residue
    {
        SpaceVa va;        ///< address the frame was last mapped at
        bool dirty = false;
        bool exec = false; ///< had execute permission (I-cache residue)
    };

    struct FrameMeta
    {
        std::vector<VaMapping> mappings;
        std::optional<Residue> residue;
        /** Write-xor-execute mode: without per-page stale state the
         *  eager strategy cannot tell whether the instruction cache
         *  is current, so a frame is either writable (no mapping may
         *  execute) or executable (no mapping may write); the fault
         *  on a mode switch performs the data-cache flush and
         *  instruction-cache purge. */
        bool execMode = false;
    };

    FrameTable<FrameMeta> frames;

    FrameMeta &getMeta(FrameId frame);

    /** Remove the mapping of @p va from @p meta's list. */
    static void unlistMapping(FrameMeta &meta, SpaceVa va);

    /** Remove @p frame's residue from the cache (flush if dirty). */
    void cleanResidue(FrameId frame, FrameMeta &meta, Reason reason,
                      bool base_modified = false);

    /** Break one existing mapping: drop the translation, unlist it
     *  and clean its cache pages. @p m is a copy, not a list entry. */
    void breakMapping(FrameId frame, FrameMeta &meta, VaMapping m,
                      Reason reason);

    /** Clean the cache pages reachable through mapping @p m. */
    void cleanThroughMapping(FrameId frame, const VaMapping &m,
                             bool flush_dirty, Reason reason);

    /** @return true iff data-cache colour @p colour may hold dirty
     *  data of the frame: @p base_modified (the bit of a mapping
     *  being dropped) or any live aligned mapping's modified bit. */
    bool colourPossiblyDirty(const FrameMeta &meta, CachePageId colour,
                             bool base_modified) const;

    /** Switch the frame to execute mode: flush every possibly-dirty
     *  data cache colour, purge the requesting mapping's instruction
     *  cache page, and revoke write from every mapping. */
    void enterExecMode(FrameId frame, FrameMeta &meta,
                       CachePageId icolour);

    /** Switch the frame to write mode: revoke execute from every
     *  mapping (the next ifetch pays the flush+purge). */
    void enterWriteMode(FrameMeta &meta);

    /** @return true iff @p a and @p b conflict (occupy different data
     *  cache pages, or the policy breaks even aligned aliases). */
    bool conflicts(VirtAddr a, VirtAddr b) const;
};

} // namespace vic

#endif // VIC_CORE_CLASSIC_PMAP_HH
