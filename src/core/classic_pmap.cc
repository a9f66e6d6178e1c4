#include "core/classic_pmap.hh"

#include <utility>

#include "common/logging.hh"

namespace vic
{

ClassicPmap::ClassicPmap(Machine &m, const PolicyConfig &policy_config)
    : Pmap(m, policy_config), frames(m.params().numFrames)
{
}

ClassicPmap::FrameMeta &
ClassicPmap::getMeta(FrameId frame)
{
    return frames.getOrMake(frame);
}

std::span<const VaMapping>
ClassicPmap::mappingList(FrameId frame) const
{
    const FrameMeta *meta = frames.find(frame);
    if (!meta)
        return {};
    return meta->mappings;
}

void
ClassicPmap::unlistMapping(FrameMeta &meta, SpaceVa va)
{
    for (auto &mapping : meta.mappings) {
        if (mapping.va == va) {
            mapping = meta.mappings.back();
            meta.mappings.pop_back();
            return;
        }
    }
    vic_panic("mapping list out of sync with page table");
}

bool
ClassicPmap::conflicts(VirtAddr a, VirtAddr b) const
{
    if (cfg.breakAlignedAliases)
        return true;
    return !mach.dcache().geometry().aligned(a, b);
}

void
ClassicPmap::cleanResidue(FrameId frame, FrameMeta &meta,
                          Reason reason, bool base_modified)
{
    if (!meta.residue)
        return;
    const Residue &r = *meta.residue;
    // The residue's cache page may also carry dirt written through a
    // live aligned sibling mapping (whose modified bit is still live),
    // or through the mapping being removed right now (@p
    // base_modified). Purging would destroy that data, so flush.
    const bool dirty = r.dirty ||
        colourPossiblyDirty(meta, dColourOf(r.va.va), base_modified);
    if (dirty)
        flushDataPage(frame, dColourOf(r.va.va), reason);
    else
        purgeDataPage(frame, dColourOf(r.va.va), reason);
    if (r.exec)
        purgeInstPage(frame, iColourOf(r.va.va), reason);
    meta.residue.reset();
}

bool
ClassicPmap::colourPossiblyDirty(const FrameMeta &meta,
                                 CachePageId colour,
                                 bool base_modified) const
{
    if (base_modified)
        return true;
    // The cache page is shared by every ALIGNED mapping of the frame:
    // data written through one sibling is dirty in the very lines a
    // purge through another sibling would discard. Any live aligned
    // mapping with its modified bit set makes the colour dirty.
    for (const auto &m : meta.mappings) {
        if (dColourOf(m.va.va) == colour && m.pte->modified)
            return true;
    }
    return false;
}

void
ClassicPmap::cleanThroughMapping(FrameId frame, const VaMapping &m,
                                 bool flush_dirty, Reason reason)
{
    if (flush_dirty)
        flushDataPage(frame, dColourOf(m.va.va), reason);
    else
        purgeDataPage(frame, dColourOf(m.va.va), reason);
    if (m.vmProt.execute)
        purgeInstPage(frame, iColourOf(m.va.va), reason);
}

void
ClassicPmap::enterExecMode(FrameId frame, FrameMeta &meta,
                           CachePageId icolour)
{
    // The newest data must reach memory before the instruction cache
    // fills from it: flush every colour a live mapping may have
    // dirtied (consuming the modified bits).
    std::vector<CachePageId> flushed;
    for (const auto &m : meta.mappings) {
        const CachePageId c = dColourOf(m.va.va);
        bool seen = false;
        for (CachePageId f : flushed)
            seen |= f == c;
        if (seen)
            continue;
        const bool modified = std::exchange(m.pte->modified, false);
        if (colourPossiblyDirty(meta, c, modified)) {
            flushDataPage(frame, c, Reason::IFetch);
            flushed.push_back(c);
        }
    }
    // A dirty residue (Tut) holds newest data in its cache page too,
    // and no live mapping's modified bit covers it.
    if (meta.residue && meta.residue->dirty) {
        flushDataPage(frame, dColourOf(meta.residue->va.va), Reason::IFetch);
        meta.residue->dirty = false;
    }
    // Without stale state, assume the instruction cache copy is old.
    purgeInstPage(frame, icolour, Reason::IFetch);

    // Revoke write everywhere; a later store faults into write mode.
    for (const auto &m : meta.mappings) {
        if (m.pte->prot.write) {
            Protection p = m.pte->prot;
            p.write = false;
            setHardwareProt(m, p);
        }
    }
    meta.execMode = true;
}

void
ClassicPmap::enterWriteMode(FrameMeta &meta)
{
    for (const auto &m : meta.mappings) {
        if (m.pte->prot.execute) {
            Protection p = m.pte->prot;
            p.execute = false;
            setHardwareProt(m, p);
        }
    }
    meta.execMode = false;
}

void
ClassicPmap::breakMapping(FrameId frame, FrameMeta &meta, VaMapping m,
                          Reason reason)
{
    const bool modified = dropTranslation(m.va);
    unlistMapping(meta, m.va);
    const bool dirty =
        colourPossiblyDirty(meta, dColourOf(m.va.va), modified);
    cleanThroughMapping(frame, m, dirty, reason);
}

void
ClassicPmap::enter(SpaceVa va, FrameId frame, Protection vm_prot,
                   AccessType access, const EnterHints &hints)
{
    (void)hints;  // the classic strategies have no semantic hints
    mach.clock().advance(mach.params().pmapOverheadCycles);
    va.va = mach.pageTable().pageBase(va.va);
    vic_assert(mach.pageTable().lookup(va) == nullptr,
               "enter over live mapping space=%u va=%llx", va.space,
               (unsigned long long)va.va.value);

    FrameMeta &meta = getMeta(frame);

    if (cfg.brokenNoConsistency) {
        // Testing-only unsound mode: pretend the cache is physically
        // indexed and do nothing about aliases or residue.
        PageTableEntry *pte = setTranslation(va, frame, vm_prot);
        meta.mappings.push_back(VaMapping{va, vm_prot, pte});
        return;
    }

    // Tut-style residue: if the frame still has cache contents from a
    // previous mapping, they must be removed unless the new address
    // matches (equal address for Tut; aligned otherwise). A matching
    // dirty residue is consumed without a flush — the dirty data stays
    // valid through the new mapping — but the dirtiness itself must
    // survive, or a later exec-mode switch or DMA would miss the
    // flush. It is carried into the new mapping's modified bit below.
    bool carry_dirty = false;
    if (meta.residue) {
        const Residue &r = *meta.residue;
        const bool matches = cfg.equalVaOnly
            ? r.va.va == va.va
            : mach.dcache().geometry().aligned(r.va.va, va.va);
        if (!matches) {
            cleanResidue(frame, meta, Reason::NewMap);
            // No purge of the new cache page: the residue is the only
            // place this frame's lines survive outside live mappings
            // (an earlier residue was cleaned when it was replaced),
            // so the frame cannot have stale data there. The
            // necessity analyzer proves every instance of such a
            // purge redundant.
        } else {
            carry_dirty = r.dirty;
            meta.residue.reset();
        }
    }

    // Alias handling (Section 2.5's "old" strategy): a write breaks
    // every conflicting mapping; a read breaks conflicting writable
    // mappings and comes in read-only.
    bool conflicting_alias = false;
    std::vector<VaMapping> to_break;
    for (const auto &m : meta.mappings) {
        if (!conflicts(m.va.va, va.va))
            continue;
        conflicting_alias = true;
        if (isWrite(access) || m.pte->prot.write || m.pte->modified)
            to_break.push_back(m);
    }
    for (const auto &m : to_break)
        breakMapping(frame, meta, m, Reason::Alias);

    // Effective protection: conflicting read aliases stay read-only so
    // the next write traps and can break them.
    Protection eff = vm_prot;
    if (!isWrite(access) && conflicting_alias)
        eff.write = false;

    // Write-xor-execute discipline (see FrameMeta::execMode): the
    // mode-switch fault performs the D-cache flush / I-cache purge
    // that keep the split caches consistent.
    if (access == AccessType::IFetch && eff.execute) {
        if (!meta.execMode) {
            // The consumed residue's dirty data is about to be
            // executed; enterExecMode cannot see it (this mapping is
            // not installed yet), so flush it to memory first.
            if (carry_dirty) {
                flushDataPage(frame, dColourOf(va.va), Reason::IFetch);
                carry_dirty = false;
            }
            enterExecMode(frame, meta, iColourOf(va.va));
        }
        eff.write = false;
    } else {
        if (isWrite(access) && meta.execMode)
            enterWriteMode(meta);
        if (meta.execMode)
            eff.write = false;
        else
            eff.execute = false;
    }

    PageTableEntry *pte = setTranslation(va, frame, eff);
    if (carry_dirty)
        pte->modified = true;
    meta.mappings.push_back(VaMapping{va, vm_prot, pte});
}

void
ClassicPmap::remove(SpaceVa va)
{
    mach.clock().advance(mach.params().pmapOverheadCycles);
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    if (!pte)
        return;
    const FrameId frame = pte->frame;
    FrameMeta &meta = getMeta(frame);
    const VaMapping *m = nullptr;
    for (const auto &mapping : meta.mappings) {
        if (mapping.va == va)
            m = &mapping;
    }
    vic_assert(m != nullptr, "mapping list out of sync with page table");
    const VaMapping removed_mapping = *m;

    const bool modified = dropTranslation(va);
    unlistMapping(meta, va);

    if (cfg.brokenNoConsistency) {
        // Testing-only unsound mode: leave whatever is in the cache.
    } else if (cfg.cleanOnUnmap) {
        // Eager: remove the page from the cache right now, flushing if
        // it might be dirty — including dirt written through an
        // aligned sibling mapping, whose modified bit lives elsewhere.
        const bool dirty = colourPossiblyDirty(
            meta, dColourOf(removed_mapping.va.va), modified);
        cleanThroughMapping(frame, removed_mapping, dirty, Reason::Unmap);
    } else {
        // Tut: remember the residue; clean it only if/when the frame
        // is remapped at a non-matching address. A pre-existing
        // residue at another address must be cleaned now — only one is
        // tracked per frame.
        if (meta.residue && meta.residue->va.va != va.va)
            cleanResidue(frame, meta, Reason::Unmap,
                         modified &&
                             mach.dcache().geometry().aligned(
                                 va.va, meta.residue->va.va));
        meta.residue = Residue{va, modified,
                               removed_mapping.vmProt.execute};
    }
}

void
ClassicPmap::protect(SpaceVa va, Protection vm_prot)
{
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    vic_assert(pte != nullptr, "protect of unmapped page");
    FrameMeta &meta = getMeta(pte->frame);
    for (auto &m : meta.mappings) {
        if (m.va == va) {
            m.vmProt = vm_prot;
            setHardwareProt(m, pte->prot.intersect(vm_prot));
            return;
        }
    }
    vic_panic("mapping list out of sync with page table");
}

bool
ClassicPmap::resolveConsistencyFault(SpaceVa va, AccessType access)
{
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    if (!pte)
        return false;

    const FrameId frame = pte->frame;
    FrameMeta &meta = getMeta(frame);
    // A copy: breaking the other mappings below reorders the list.
    std::optional<VaMapping> m;
    for (const auto &mapping : meta.mappings) {
        if (mapping.va == va)
            m = mapping;
    }
    vic_assert(m.has_value(),
               "mapping list out of sync with page table");

    if (!protPermits(m->vmProt, access))
        return false;  // genuine VM-level denial

    if (cfg.brokenNoConsistency) {
        setHardwareProt(*m, m->vmProt);
        return access != AccessType::Load;
    }

    if (access == AccessType::IFetch) {
        // Write-to-execute mode switch: flush the dirty data out,
        // assume the instruction cache is stale, trap future writes.
        // Once exec mode holds no further purge is needed: stores
        // trap (write-xor-execute) and DMA input purges eagerly, so
        // the instruction cache cannot have gone stale — the
        // necessity analyzer proves the old purge-on-every-fault
        // redundant in every instance.
        if (!meta.execMode)
            enterExecMode(frame, meta, iColourOf(va.va));
        Protection eff = m->vmProt;
        eff.write = false;
        setHardwareProt(*m, eff);
        return true;
    }

    if (access != AccessType::Store)
        return false;  // reads are never denied for consistency

    // Execute-to-write mode switch, if needed.
    if (meta.execMode)
        enterWriteMode(meta);

    // Write to an aliased page: break every conflicting mapping, then
    // grant this one its VM protection (minus execute, which the next
    // ifetch re-earns through the mode switch). A residue at a
    // conflicting address is an alias too: its cache page is about to
    // go stale (and any dirty data in it must reach memory first), so
    // clean it now — otherwise a later matching re-enter would revive
    // the stale copy.
    if (meta.residue && conflicts(meta.residue->va.va, va.va))
        cleanResidue(frame, meta, Reason::Alias);
    std::vector<VaMapping> to_break;
    for (const auto &other : meta.mappings) {
        if (other.va != va && conflicts(other.va.va, va.va))
            to_break.push_back(other);
    }
    for (const auto &other : to_break)
        breakMapping(frame, meta, other, Reason::Alias);

    Protection eff = m->vmProt;
    eff.execute = false;
    setHardwareProt(*m, eff);
    return true;
}

void
ClassicPmap::dmaRead(FrameId frame, bool need_data)
{
    (void)need_data;  // classic strategies always flush live data
    if (cfg.brokenNoConsistency)
        return;
    FrameMeta *meta = frames.find(frame);
    if (!meta)
        return;

    for (const auto &m : meta->mappings) {
        // The hardware modified bit says whether this mapping could
        // have dirtied the cache; clean mappings need nothing, since
        // memory is already current.
        if (std::exchange(m.pte->modified, false))
            flushDataPage(frame, dColourOf(m.va.va), Reason::DmaRead);
    }
    if (meta->residue && meta->residue->dirty) {
        flushDataPage(frame, dColourOf(meta->residue->va.va),
                      Reason::DmaRead);
        meta->residue->dirty = false;
    }
}

void
ClassicPmap::dmaWrite(FrameId frame)
{
    if (cfg.brokenNoConsistency)
        return;
    FrameMeta *meta = frames.find(frame);
    if (!meta)
        return;

    for (const auto &m : meta->mappings) {
        m.pte->modified = false;
        purgeDataPage(frame, dColourOf(m.va.va), Reason::DmaWrite);
        if (m.vmProt.execute)
            purgeInstPage(frame, iColourOf(m.va.va), Reason::DmaWrite);
    }
    if (meta->residue) {
        purgeDataPage(frame, dColourOf(meta->residue->va.va),
                      Reason::DmaWrite);
        if (meta->residue->exec)
            purgeInstPage(frame, iColourOf(meta->residue->va.va),
                          Reason::DmaWrite);
        meta->residue.reset();
    }
}

void
ClassicPmap::frameFreed(FrameId frame)
{
    const FrameMeta *meta = frames.find(frame);
    if (!meta)
        return;
    vic_assert(meta->mappings.empty(),
               "frame %llu freed with live mappings",
               (unsigned long long)frame);
    // Residue (Tut) survives the free list and is reconciled at the
    // next enter, exactly like the lazy strategy's state.
}

std::vector<SpaceVa>
ClassicPmap::mappingsOf(FrameId frame) const
{
    std::vector<SpaceVa> out;
    for (const auto &m : mappingList(frame))
        out.push_back(m.va);
    return out;
}

std::optional<CachePageId>
ClassicPmap::preferredColour(FrameId frame) const
{
    const FrameMeta *meta = frames.find(frame);
    if (!meta)
        return std::nullopt;
    if (meta->residue)
        return dColourOf(meta->residue->va.va);
    if (!meta->mappings.empty())
        return dColourOf(meta->mappings.front().va.va);
    return std::nullopt;
}

} // namespace vic
