/**
 * @file
 * Machine-dependent virtual memory layer (Mach's "pmap") with cache
 * consistency management.
 *
 * The machine-independent VM layer (src/os) calls this interface to
 * create and destroy translations, resolve protection faults, and
 * prepare for DMA. Concrete strategies:
 *
 *  - LazyPmap: the paper's contribution — the Figure 1 CacheControl
 *    algorithm over explicit per-(physical page, cache page) state,
 *    delaying flushes and purges until an inconsistency would be
 *    observed;
 *  - ClassicPmap: the "old" eager, case-by-case strategy of Section
 *    2.5 and the related-work systems of Table 5.
 *
 * Both run against the same simulated machine and are interchangeable
 * under the OS layer, which is how the benches compare configurations.
 */

#ifndef VIC_CORE_PMAP_HH
#define VIC_CORE_PMAP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/phys_page_info.hh"
#include "core/policy_config.hh"
#include "machine/machine.hh"
#include "mmu/fault.hh"

namespace vic
{

class Pmap
{
  public:
    /** Semantic hints for enter() (Section 4.1's two optimisations).
     *  They are requests; a policy honours them only if its
     *  configuration enables the corresponding optimisation. */
    struct EnterHints
    {
        /** Every byte of the page will be overwritten through this
         *  mapping before anything is read through it (zero-fill /
         *  copy destination): the purge of a stale target cache page
         *  can be elided. */
        bool willOverwrite = false;
        /** The frame's previous contents are still meaningful. When
         *  false (page being recycled and prepared), a dirty cache
         *  page can be purged instead of flushed. */
        bool needData = true;
    };

    /** Why a cache page is flushed or purged. Each (operation,
     *  reason) pair counts into "pmap.<op>.<reason>", e.g.
     *  "pmap.d_flush.dma_read". */
    enum class Reason : std::uint8_t
    {
        Unmap,     ///< a mapping went away
        NewMap,    ///< a frame gained a mapping
        Alias,     ///< an unaligned alias was broken
        Fault,     ///< a consistency fault
        IFetch,    ///< an instruction fetch
        DmaRead,   ///< a device reads the frame
        DmaWrite,  ///< a device writes the frame
    };

    /** Where a policy issues a cache op: the reason the simulator's
     *  stats count it under, and the label the verifier's necessity
     *  analysis reports it by (docs/VERIFICATION.md). */
    struct OpSite
    {
        Reason reason;
        const char *label;
    };

    Pmap(Machine &m, const PolicyConfig &policy_config);
    virtual ~Pmap() = default;

    Pmap(const Pmap &) = delete;
    Pmap &operator=(const Pmap &) = delete;

    Machine &machine() { return mach; }
    const PolicyConfig &config() const { return cfg; }

    /**
     * Create a translation from page-aligned @p va to @p frame.
     * @p vm_prot is the VM layer's maximum protection; the effective
     * hardware protection may be more restrictive to catch consistency
     * transitions. @p access is the access initiating the mapping.
     */
    virtual void enter(SpaceVa va, FrameId frame, Protection vm_prot,
                       AccessType access, const EnterHints &hints) = 0;

    /** Remove the translation for @p va (no-op if absent). */
    virtual void remove(SpaceVa va) = 0;

    /** Lower the VM-level protection of an existing mapping (e.g. for
     *  copy-on-write). */
    virtual void protect(SpaceVa va, Protection vm_prot) = 0;

    /**
     * A protection fault occurred on an existing mapping. If the
     * denial was due to cache consistency state, perform the required
     * transitions and return true (the access is retried). If the
     * denial is a genuine VM-level one (e.g. write to a copy-on-write
     * page), return false so the OS can handle it.
     */
    virtual bool resolveConsistencyFault(SpaceVa va,
                                         AccessType access) = 0;

    /** Prepare for a device read of @p frame from memory (DMA-read):
     *  dirty cache data must reach memory first. @p need_data is false
     *  if the frame's contents are dead (never the case for real
     *  output, used by tests). */
    virtual void dmaRead(FrameId frame, bool need_data) = 0;

    /** Prepare for a device write into @p frame (DMA-write): cached
     *  copies must not shadow or overwrite the device's data. */
    virtual void dmaWrite(FrameId frame) = 0;

    /** The frame is being returned to the free list. All mappings must
     *  already be removed. */
    virtual void frameFreed(FrameId frame) = 0;

    /**
     * The data-cache colour at which mapping @p frame would require no
     * consistency work (where its data currently lives in the cache),
     * or nullopt if the frame has no cache footprint. Drives the OS's
     * alignment decisions and the per-colour free list.
     */
    virtual std::optional<CachePageId>
    preferredColour(FrameId frame) const = 0;

    /** All live virtual mappings of @p frame (used by the pageout
     *  daemon to evict every translation before swapping a page). */
    virtual std::vector<SpaceVa> mappingsOf(FrameId frame) const = 0;

    /** Strategy name for reports. */
    virtual const char *kindName() const = 0;

    /** Factory: build the pmap strategy selected by @p policy_config. */
    static std::unique_ptr<Pmap> create(Machine &m,
                                        const PolicyConfig &policy_config);

    // --- shared geometry helpers ---

    /** Data-cache colour of @p va. */
    CachePageId dColourOf(VirtAddr va) const
    { return mach.dcache().geometry().colourOf(va); }

    /** Instruction-cache colour of @p va. */
    CachePageId iColourOf(VirtAddr va) const
    { return mach.icache().geometry().colourOf(va); }

    /** A synthetic kernel-equivalent virtual address of data-cache
     *  colour @p colour, usable to index the cache for flush/purge of
     *  pages that may no longer be mapped. */
    VirtAddr dColourVa(CachePageId colour) const
    { return VirtAddr(std::uint64_t(colour) * mach.pageBytes()); }

    /** Likewise for the instruction cache. */
    VirtAddr iColourVa(CachePageId colour) const
    { return VirtAddr(std::uint64_t(colour) * mach.pageBytes()); }

  protected:
    Machine &mach;
    PolicyConfig cfg;

    /** Per-frame pmap state: a flat table with one slot per physical
     *  frame, each made on first use. A frame past the machine's
     *  memory panics. */
    template <typename T>
    class FrameTable
    {
      public:
        explicit FrameTable(std::uint64_t num_frames) : slots(num_frames)
        {}

        /** The state of @p frame, made from @p args on first use. */
        template <typename... Args>
        T &
        getOrMake(FrameId frame, Args &&...args)
        {
            std::optional<T> &s = slots[checked(frame)];
            if (!s)
                s.emplace(std::forward<Args>(args)...);
            return *s;
        }

        /** The state of @p frame; nullptr if never made. */
        T *
        find(FrameId frame)
        {
            std::optional<T> &s = slots[checked(frame)];
            return s ? &*s : nullptr;
        }

        const T *
        find(FrameId frame) const
        {
            const std::optional<T> &s = slots[checked(frame)];
            return s ? &*s : nullptr;
        }

      private:
        std::vector<std::optional<T>> slots;

        std::size_t
        checked(FrameId frame) const
        {
            if (frame >= slots.size()) [[unlikely]]
                frameOutOfRange(frame, slots.size());
            return static_cast<std::size_t>(frame);
        }
    };

    // --- cache page operations with statistics attribution ---

    void flushDataPage(FrameId frame, CachePageId colour, Reason reason);
    void purgeDataPage(FrameId frame, CachePageId colour, Reason reason);
    void purgeInstPage(FrameId frame, CachePageId colour, Reason reason);

    // --- page table + TLB updates ---

    /** Install or update the hardware translation. @return its
     *  page-table entry, for the mapping's VaMapping::pte. */
    PageTableEntry *setTranslation(SpaceVa va, FrameId frame,
                                   Protection prot);

    /** Drop the hardware translation — the only erase of a page-table
     *  entry, so the caller removes the mapping that holds its handle
     *  with it. @return old modified bit. */
    bool dropTranslation(SpaceVa va);

    /** Update the protection of mapping @p m's translation through
     *  its handle, then shoot the page down. */
    void setHardwareProt(const VaMapping &m, Protection prot);

    /**
     * What both pmaps' per-frame views share (the View the shared
     * rules run on, core/classic_rules.hh): one frame's mapping list,
     * read and written through the page-table entry handles, and the
     * machine's caches. A view opened on an unmapped address has no
     * list, and finds nothing.
     */
    class MappingView
    {
      public:
        using Va = SpaceVa;
        using Mapping = VaMapping;

        CachePageId dColour(SpaceVa va) const
        { return pmap.dColourOf(va.va); }
        CachePageId iColour(SpaceVa va) const
        { return pmap.iColourOf(va.va); }

        std::size_t size() const { return list->size(); }
        const VaMapping &at(std::size_t i) const { return (*list)[i]; }
        /** The listed mapping of @p va; nullopt if the view has no
         *  list. Panics if the list lacks a mapped @p va. */
        std::optional<VaMapping> find(SpaceVa va) const;

        static SpaceVa vaOf(const VaMapping &m) { return m.va; }
        static Protection vmProt(const VaMapping &m) { return m.vmProt; }
        static Protection hwProt(const VaMapping &m)
        { return m.pte->prot; }
        static bool modified(const VaMapping &m)
        { return m.pte->modified; }
        static bool takeModified(const VaMapping &m)
        { return std::exchange(m.pte->modified, false); }
        void setHardwareProt(const VaMapping &m, Protection prot)
        { pmap.setHardwareProt(m, prot); }

        void flushData(CachePageId colour, const OpSite &site)
        { pmap.flushDataPage(frame, colour, site.reason); }
        void purgeData(CachePageId colour, const OpSite &site)
        { pmap.purgeDataPage(frame, colour, site.reason); }
        void purgeInst(CachePageId colour, const OpSite &site)
        { pmap.purgeInstPage(frame, colour, site.reason); }

        void
        chargeBookkeeping()
        {
            const Cycles cost = pmap.mach.params().pmapOverheadCycles;
            pmap.mach.clock().advance(cost);
        }

      protected:
        MappingView(Pmap &p, FrameId f, std::vector<VaMapping> *l)
            : pmap(p), frame(f), list(l)
        {}

        /** Enter the frame's translation at @p va; @return the entry
         *  for the new mapping, its modified bit set if @p modified. */
        PageTableEntry *
        translate(SpaceVa va, Protection prot, bool modified)
        {
            PageTableEntry *pte = pmap.setTranslation(va, frame, prot);
            if (modified)
                pte->modified = true;
            return pte;
        }

        /** Drop the translation at @p va; @return its modified bit. */
        bool untranslate(SpaceVa va) { return pmap.dropTranslation(va); }

        Pmap &pmap;
        FrameId frame;
        std::vector<VaMapping> *list;
    };

  private:
    /** The page operations counted per reason. */
    enum class PageOp : std::uint8_t
    {
        DFlush,
        DPurge,
        IPurge,
    };

    static const char *reasonName(Reason reason);

    [[noreturn, gnu::cold]] static void
    frameOutOfRange(FrameId frame, std::size_t num_frames);

    /** Bump the counter of (@p op, @p reason), registered on first
     *  use so a run's stats list only the pairs it exercised. */
    void countReason(PageOp op, Reason reason);

    Counter &statDFlushes;
    Counter &statDPurges;
    Counter &statIPurges;
    /** [PageOp][Reason]; null until the pair is first used. */
    std::array<std::array<Counter *, 7>, 3> reasonCounters{};
};

} // namespace vic

#endif // VIC_CORE_PMAP_HH
