/**
 * @file
 * The eager, case-by-case consistency rules — the "old" system of
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
 * The rules are written once, over a per-frame View: ClassicPmap runs
 * them over its frame state and page-table entry handles, and the
 * static verifier (verify::AbstractSimulator) over its model state's
 * alias slots, so every decision the verifier proves is compiled from
 * the code the simulator runs. A View provides:
 *
 *  - types Va (an address the frame is mapped at) and Mapping (a
 *    listed mapping, still valid after the list is reordered);
 *  - dColour(va), iColour(va), and sameAddress(a, b), the equality a
 *    Tut residue matches by;
 *  - the mapping list: size(), at(i), find(va) (nullopt if unmapped),
 *    vaOf, vmProt, hwProt, modified, takeModified (read and clear),
 *    setHardwareProt, install (appends) and drop (moves the last
 *    mapping into the hole; returns the modified bit);
 *  - residue() and execMode(), the frame's bookkeeping;
 *  - flushData/purgeData/purgeInst(colour, site), and
 *    chargeBookkeeping() for each call that costs pmapOverheadCycles.
 */

#ifndef VIC_CORE_CLASSIC_RULES_HH
#define VIC_CORE_CLASSIC_RULES_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "core/pmap.hh"

namespace vic
{

/** What a frame may have left in the cache after its mappings were
 *  (lazily) removed — Tut-style per-virtual-address state. */
template <typename Va>
struct ClassicResidue
{
    Va va;              ///< address the frame was last mapped at
    bool dirty = false;
    bool exec = false;  ///< had execute permission (I-cache residue)
};

template <typename View>
class ClassicRules
{
  public:
    using Va = typename View::Va;
    using Mapping = typename View::Mapping;
    using Reason = Pmap::Reason;
    using Site = Pmap::OpSite;

    // Every cache op the rules issue, by call site.
    static constexpr Site kEnterCleanResidue{
        Reason::NewMap, "classic.enter.clean-residue"};
    static constexpr Site kEnterBreakAlias{
        Reason::Alias, "classic.enter.break-alias"};
    static constexpr Site kEnterCarryFlush{
        Reason::IFetch, "classic.enter.carry-flush"};
    static constexpr Site kExecMode{Reason::IFetch, "classic.exec-mode"};
    static constexpr Site kUnmapClean{Reason::Unmap,
                                      "classic.unmap.clean"};
    static constexpr Site kUnmapCleanResidue{
        Reason::Unmap, "classic.unmap.clean-residue"};
    static constexpr Site kFaultCleanResidue{
        Reason::Alias, "classic.fault.clean-residue"};
    static constexpr Site kFaultBreakAlias{
        Reason::Alias, "classic.fault.break-alias"};
    static constexpr Site kDmaOutFlush{Reason::DmaRead,
                                       "classic.dma-out.flush"};
    static constexpr Site kDmaInPurge{Reason::DmaWrite,
                                      "classic.dma-in.purge"};

    explicit ClassicRules(const PolicyConfig &policy) : cfg(policy) {}

    /** Pmap::enter of unmapped @p va (the classic strategies take no
     *  semantic hints). */
    void
    enter(View &v, Va va, Protection vm_prot, AccessType access,
          const Pmap::EnterHints &)
    {
        v.chargeBookkeeping();
        if (cfg.brokenNoConsistency) {
            // Testing-only unsound mode: pretend the cache is
            // physically indexed and do nothing about aliases or
            // residue.
            v.install(va, vm_prot, vm_prot, false);
            return;
        }

        // Tut-style residue: if the frame still has cache contents
        // from a previous mapping, they must be removed unless the new
        // address matches (equal address for Tut; aligned otherwise).
        // A matching dirty residue is consumed without a flush — the
        // dirty data stays valid through the new mapping — but the
        // dirtiness itself must survive, or a later exec-mode switch
        // or DMA would miss the flush. It is carried into the new
        // mapping's modified bit below.
        bool carry_dirty = false;
        std::optional<Residue> &residue = v.residue();
        if (residue) {
            const bool matches = cfg.equalVaOnly
                ? View::sameAddress(residue->va, va)
                : v.dColour(residue->va) == v.dColour(va);
            if (!matches) {
                cleanResidue(v, kEnterCleanResidue);
                // No purge of the new cache page: the residue is the
                // only place this frame's lines survive outside live
                // mappings (an earlier residue was cleaned when it was
                // replaced), so the frame cannot have stale data
                // there. The necessity analyzer proves every instance
                // of such a purge redundant.
            } else {
                carry_dirty = residue->dirty;
                residue.reset();
            }
        }

        // Alias handling (Section 2.5's "old" strategy): a write
        // breaks every conflicting mapping; a read breaks conflicting
        // writable mappings and comes in read-only.
        bool conflicting_alias = false;
        doomed.clear();
        for (std::size_t i = 0; i < v.size(); ++i) {
            const Mapping &m = v.at(i);
            if (!conflicts(v, v.vaOf(m), va))
                continue;
            conflicting_alias = true;
            if (isWrite(access) || v.hwProt(m).write || v.modified(m))
                doomed.push_back(m);
        }
        breakDoomed(v, kEnterBreakAlias);

        // Effective protection: conflicting read aliases stay
        // read-only so the next write traps and can break them.
        Protection eff = vm_prot;
        if (!isWrite(access) && conflicting_alias)
            eff.write = false;

        // Write-xor-execute discipline (see execMode): the mode-switch
        // fault performs the D-cache flush / I-cache purge that keep
        // the split caches consistent.
        if (access == AccessType::IFetch && eff.execute) {
            if (!v.execMode()) {
                // The consumed residue's dirty data is about to be
                // executed; enterExecMode cannot see it (this mapping
                // is not installed yet), so flush it to memory first.
                if (carry_dirty) {
                    v.flushData(v.dColour(va), kEnterCarryFlush);
                    carry_dirty = false;
                }
                enterExecMode(v, v.iColour(va));
            }
            eff.write = false;
        } else {
            if (isWrite(access) && v.execMode())
                enterWriteMode(v);
            if (v.execMode())
                eff.write = false;
            else
                eff.execute = false;
        }

        v.install(va, vm_prot, eff, carry_dirty);
    }

    /** Pmap::remove of @p va; charged even if @p va is not mapped. */
    void
    remove(View &v, Va va)
    {
        v.chargeBookkeeping();
        const std::optional<Mapping> m = v.find(va);
        if (!m)
            return;
        const bool had_exec = v.vmProt(*m).execute;
        const bool modified = v.drop(*m);

        if (cfg.brokenNoConsistency)
            return;  // testing-only: leave whatever is in the cache
        if (cfg.cleanOnUnmap) {
            // Eager: remove the page from the cache right now,
            // flushing if it might be dirty — including dirt written
            // through an aligned sibling mapping, whose modified bit
            // lives elsewhere.
            cleanThrough(v, va, had_exec,
                         colourPossiblyDirty(v, v.dColour(va), modified),
                         kUnmapClean);
            return;
        }
        // Tut: remember the residue; clean it only if/when the frame
        // is remapped at a non-matching address. A pre-existing
        // residue at another address must be cleaned now — only one
        // is tracked per frame.
        std::optional<Residue> &residue = v.residue();
        if (residue && !View::sameAddress(residue->va, va))
            cleanResidue(v, kUnmapCleanResidue,
                         modified &&
                             v.dColour(va) == v.dColour(residue->va));
        residue = Residue{va, modified, had_exec};
    }

    /** Pmap::resolveConsistencyFault: @return false if the denial is
     *  not the policy's (unmapped, or a genuine VM-level denial). */
    bool
    resolveFault(View &v, Va va, AccessType access)
    {
        // A copy: breaking the other mappings below reorders the list.
        const std::optional<Mapping> found = v.find(va);
        if (!found)
            return false;
        const Mapping m = *found;
        if (!protPermits(v.vmProt(m), access))
            return false;  // genuine VM-level denial

        if (cfg.brokenNoConsistency) {
            v.setHardwareProt(m, v.vmProt(m));
            return access != AccessType::Load;
        }

        if (access == AccessType::IFetch) {
            // Write-to-execute mode switch: flush the dirty data out,
            // assume the instruction cache is stale, trap future
            // writes. Once exec mode holds no further purge is needed:
            // stores trap (write-xor-execute) and DMA input purges
            // eagerly, so the instruction cache cannot have gone stale
            // — the necessity analyzer proves the old
            // purge-on-every-fault redundant in every instance.
            if (!v.execMode())
                enterExecMode(v, v.iColour(va));
            Protection eff = v.vmProt(m);
            eff.write = false;
            v.setHardwareProt(m, eff);
            return true;
        }

        if (access != AccessType::Store)
            return false;  // reads are never denied for consistency

        // Execute-to-write mode switch, if needed.
        if (v.execMode())
            enterWriteMode(v);

        // Write to an aliased page: break every conflicting mapping,
        // then grant this one its VM protection (minus execute, which
        // the next ifetch re-earns through the mode switch). A residue
        // at a conflicting address is an alias too: its cache page is
        // about to go stale (and any dirty data in it must reach
        // memory first), so clean it now — otherwise a later matching
        // re-enter would revive the stale copy.
        const std::optional<Residue> &residue = v.residue();
        if (residue && conflicts(v, residue->va, va))
            cleanResidue(v, kFaultCleanResidue);
        doomed.clear();
        for (std::size_t i = 0; i < v.size(); ++i) {
            const Mapping &other = v.at(i);
            if (v.vaOf(other) != va && conflicts(v, v.vaOf(other), va))
                doomed.push_back(other);
        }
        breakDoomed(v, kFaultBreakAlias);

        Protection eff = v.vmProt(m);
        eff.execute = false;
        v.setHardwareProt(m, eff);
        return true;
    }

    /** Pmap::dmaRead: dirty data must reach memory (classic
     *  strategies always flush live data, so need_data is unused). */
    void
    dmaRead(View &v, bool)
    {
        if (cfg.brokenNoConsistency)
            return;
        for (std::size_t i = 0; i < v.size(); ++i) {
            // The hardware modified bit says whether this mapping
            // could have dirtied the cache; clean mappings need
            // nothing, since memory is already current.
            const Mapping &m = v.at(i);
            if (v.takeModified(m))
                v.flushData(v.dColour(v.vaOf(m)), kDmaOutFlush);
        }
        std::optional<Residue> &residue = v.residue();
        if (residue && residue->dirty) {
            v.flushData(v.dColour(residue->va), kDmaOutFlush);
            residue->dirty = false;
        }
    }

    /** Pmap::dmaWrite: no cached copy may shadow the device's data. */
    void
    dmaWrite(View &v)
    {
        if (cfg.brokenNoConsistency)
            return;
        for (std::size_t i = 0; i < v.size(); ++i) {
            const Mapping &m = v.at(i);
            (void)v.takeModified(m);
            cleanThrough(v, v.vaOf(m), v.vmProt(m).execute, false,
                         kDmaInPurge);
        }
        std::optional<Residue> &residue = v.residue();
        if (residue) {
            cleanThrough(v, residue->va, residue->exec, false,
                         kDmaInPurge);
            residue.reset();
        }
    }

  private:
    using Residue = ClassicResidue<Va>;

    const PolicyConfig &cfg;
    /** The mappings an alias break removes, in list order (the
     *  breaks reorder the list); reused so a break allocates
     *  nothing. */
    std::vector<Mapping> doomed;

    /** @return true iff @p a and @p b conflict (occupy different data
     *  cache pages, or the policy breaks even aligned aliases). */
    bool
    conflicts(const View &v, Va a, Va b) const
    {
        return cfg.breakAlignedAliases || v.dColour(a) != v.dColour(b);
    }

    /** @return true iff data-cache colour @p colour may hold dirty
     *  data of the frame: @p base_modified (the bit of a mapping
     *  being dropped) or any live aligned mapping's modified bit. The
     *  cache page is shared by every aligned mapping of the frame:
     *  data written through one sibling is dirty in the very lines a
     *  purge through another sibling would discard. */
    static bool
    colourPossiblyDirty(const View &v, CachePageId colour,
                        bool base_modified)
    {
        if (base_modified)
            return true;
        for (std::size_t i = 0; i < v.size(); ++i) {
            const Mapping &m = v.at(i);
            if (v.dColour(v.vaOf(m)) == colour && v.modified(m))
                return true;
        }
        return false;
    }

    /** Clean the cache pages reachable through address @p va. */
    static void
    cleanThrough(View &v, Va va, bool exec, bool flush_dirty,
                 const Site &site)
    {
        if (flush_dirty)
            v.flushData(v.dColour(va), site);
        else
            v.purgeData(v.dColour(va), site);
        if (exec)
            v.purgeInst(v.iColour(va), site);
    }

    /** Remove the frame's residue from the cache (flush if dirty). */
    static void
    cleanResidue(View &v, const Site &site, bool base_modified = false)
    {
        std::optional<Residue> &residue = v.residue();
        if (!residue)
            return;
        // The residue's cache page may also carry dirt written through
        // a live aligned sibling mapping (whose modified bit is still
        // live), or through the mapping being removed right now (@p
        // base_modified). Purging would destroy that data, so flush.
        const CachePageId colour = v.dColour(residue->va);
        cleanThrough(v, residue->va, residue->exec,
                     residue->dirty ||
                         colourPossiblyDirty(v, colour, base_modified),
                     site);
        residue.reset();
    }

    /** Break every mapping in doomed, in order: drop the translation,
     *  unlist it and clean its cache pages. */
    void
    breakDoomed(View &v, const Site &site)
    {
        for (const Mapping &m : doomed) {
            const Va va = v.vaOf(m);
            const bool exec = v.vmProt(m).execute;
            const bool modified = v.drop(m);
            cleanThrough(v, va, exec,
                         colourPossiblyDirty(v, v.dColour(va), modified),
                         site);
        }
    }

    /** Switch the frame to execute mode: flush every possibly-dirty
     *  data cache colour, purge the instruction cache page
     *  @p icolour, and revoke write from every mapping. */
    static void
    enterExecMode(View &v, CachePageId icolour)
    {
        // The newest data must reach memory before the instruction
        // cache fills from it: flush every colour a live mapping may
        // have dirtied, consuming the modified bit of the first
        // mapping of each colour. Its later mappings have nothing
        // left to do: either the colour was flushed, or none of its
        // mappings had a modified bit.
        for (std::size_t i = 0; i < v.size(); ++i) {
            const Mapping &m = v.at(i);
            const CachePageId colour = v.dColour(v.vaOf(m));
            std::size_t first = 0;
            while (v.dColour(v.vaOf(v.at(first))) != colour)
                ++first;
            if (first == i &&
                colourPossiblyDirty(v, colour, v.takeModified(m)))
                v.flushData(colour, kExecMode);
        }
        // A dirty residue (Tut) holds newest data in its cache page
        // too, and no live mapping's modified bit covers it.
        std::optional<Residue> &residue = v.residue();
        if (residue && residue->dirty) {
            v.flushData(v.dColour(residue->va), kExecMode);
            residue->dirty = false;
        }
        // Without stale state, assume the instruction cache copy is
        // old.
        v.purgeInst(icolour, kExecMode);

        // Revoke write everywhere; a later store faults into write
        // mode.
        revokeAll(v, &Protection::write);
        v.execMode() = true;
    }

    /** Switch the frame to write mode: revoke execute from every
     *  mapping (the next ifetch pays the flush+purge). */
    static void
    enterWriteMode(View &v)
    {
        revokeAll(v, &Protection::execute);
        v.execMode() = false;
    }

    /** Take permission @p bit from every mapping's translation. */
    static void
    revokeAll(View &v, bool Protection::*bit)
    {
        for (std::size_t i = 0; i < v.size(); ++i) {
            const Mapping &m = v.at(i);
            Protection p = v.hwProt(m);
            if (p.*bit) {
                p.*bit = false;
                v.setHardwareProt(m, p);
            }
        }
    }
};

} // namespace vic

#endif // VIC_CORE_CLASSIC_RULES_HH
