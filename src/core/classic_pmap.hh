/**
 * @file
 * Eager, case-by-case consistency management — the "old" system of
 * Section 2.5 and the related-work systems of Table 5 — as a pmap
 * strategy.
 *
 * The policy itself is ClassicRules (core/classic_rules.hh), which the
 * static verifier runs too; this class keeps the per-frame state the
 * rules work on — the mapping list with each mapping's page-table
 * entry handle, the Tut residue and the write-xor-execute mode — and
 * connects them to the machine.
 *
 * Compared with the paper's lazy state machine this performs strictly
 * more cache operations; Table 1/Table 4/Table 5 quantify the gap.
 */

#ifndef VIC_CORE_CLASSIC_PMAP_HH
#define VIC_CORE_CLASSIC_PMAP_HH

#include <optional>
#include <span>
#include <vector>

#include "core/classic_rules.hh"
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
    struct FrameMeta
    {
        std::vector<VaMapping> mappings;
        std::optional<ClassicResidue<SpaceVa>> residue;
        /** Write-xor-execute mode: without per-page stale state the
         *  eager strategy cannot tell whether the instruction cache
         *  is current, so a frame is either writable (no mapping may
         *  execute) or executable (no mapping may write); the fault
         *  on a mode switch performs the data-cache flush and
         *  instruction-cache purge. */
        bool execMode = false;
    };

    /** One frame as ClassicRules sees it (the View of
     *  core/classic_rules.hh): its FrameMeta, reached through the
     *  page-table entry handles, and the machine's caches. */
    class FrameView : public MappingView
    {
      public:
        FrameView(ClassicPmap &p, FrameId f, FrameMeta *m)
            : MappingView(p, f, m ? &m->mappings : nullptr), meta(m)
        {}

        static bool sameAddress(SpaceVa a, SpaceVa b)
        { return a.va == b.va; }

        void
        install(SpaceVa va, Protection vm_prot, Protection hw_prot,
                bool modified)
        {
            PageTableEntry *pte = translate(va, hw_prot, modified);
            list->push_back({va, vm_prot, pte});
        }

        bool drop(const VaMapping &m);

        std::optional<ClassicResidue<SpaceVa>> &residue()
        { return meta->residue; }
        bool &execMode() { return meta->execMode; }

      private:
        FrameMeta *meta;
    };

    FrameTable<FrameMeta> frames;
    ClassicRules<FrameView> rules;

    /** The view of the frame @p pte maps; frameless if @p pte is
     *  null. */
    FrameView viewOf(const PageTableEntry *pte);
};

} // namespace vic

#endif // VIC_CORE_CLASSIC_PMAP_HH
