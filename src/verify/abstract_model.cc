#include "verify/abstract_model.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "core/lazy_pmap.hh"
#include "core/phys_page_info.hh"

namespace vic::verify
{

// ---------------------------------------------------------------------
// Display helpers
// ---------------------------------------------------------------------

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::Load: return "load";
      case EventKind::Store: return "store";
      case EventKind::IFetch: return "ifetch";
      case EventKind::Unmap: return "unmap";
      case EventKind::UnmapMove: return "unmap-move";
      case EventKind::DmaIn: return "dma-in";
      case EventKind::DmaOut: return "dma-out";
    }
    return "?";
}

std::string
eventName(const Event &e)
{
    if (e.kind == EventKind::DmaIn || e.kind == EventKind::DmaOut)
        return eventKindName(e.kind);
    std::string s = eventKindName(e.kind);
    s += '@';
    s += static_cast<char>('A' + e.slot);
    return s;
}

std::string
traceName(const Trace &t)
{
    std::string s;
    for (const Event &e : t) {
        if (!s.empty())
            s += " -> ";
        s += eventName(e);
    }
    return s.empty() ? "<empty>" : s;
}

const char *
violationKindName(ViolationKind k)
{
    switch (k) {
      case ViolationKind::StaleLoad: return "stale-load";
      case ViolationKind::StaleIFetch: return "stale-ifetch";
      case ViolationKind::StaleDmaOut: return "stale-dma-out";
    }
    return "?";
}

std::string
IssuedOp::name() const
{
    std::string s = op == RequiredOp::Flush ? "flush " : "purge ";
    s += cache == CacheKind::Instruction ? 'i' : 'd';
    s += static_cast<char>('0' + colour);
    s += present ? (dirty ? " (present,dirty)" : " (present)")
                 : " (absent)";
    s += " @";
    s += site;
    return s;
}

// ---------------------------------------------------------------------
// Slot plan
// ---------------------------------------------------------------------

SlotPlan
SlotPlan::standard()
{
    SlotPlan p;
    // A: baseline; B: unaligned alias of A; C: aligned alias of A at a
    // different virtual address.
    p.slots = {{0, 0, 0}, {1, 1, 0}, {0, 0, 1}};
    p.dColours = 2;
    p.iColours = 2;
    return p;
}

// ---------------------------------------------------------------------
// State packing
// ---------------------------------------------------------------------

ModelState::Key
ModelState::pack() const
{
    Key k{0, 0};
    unsigned bit = 0;
    auto push = [&](std::uint64_t v, unsigned bits) {
        for (unsigned i = 0; i < bits; ++i, ++bit)
            if (v & (1ull << i))
                k[bit >> 6] |= 1ull << (bit & 63);
    };

    push(memFresh, 1);
    for (const DLine &l : dline) {
        push(l.present, 1);
        push(l.fresh, 1);
        push(l.dirty, 1);
    }
    for (const ILine &l : iline) {
        push(l.present, 1);
        push(l.fresh, 1);
    }
    for (unsigned i = 0; i < kMaxSlots; ++i) {
        push(live[i], 1);
        push(modbit[i], 1);
        push(vaGen[i], 1);
        push(hwWrite[i], 1);
        push(hwExec[i], 1);
    }
    for (unsigned i = 0; i < kMaxSlots; ++i)
        push(order[i], 2);
    push(numLive, 3);
    push(everTouched, 1);
    push(dMapped, 4);
    push(dStale, 4);
    push(iMapped, 4);
    push(iStale, 4);
    push(dCacheDirty, 1);
    push(execMode, 1);
    push(hasResidue, 1);
    push(residueSlot, 2);
    push(residueGen, 1);
    push(residueDirty, 1);
    push(residueExec, 1);
    vic_assert(bit <= 128, "ModelState::pack overflow (%u bits)", bit);
    return k;
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

namespace
{

CacheStateVector
makeVec(std::uint8_t mapped, std::uint8_t stale, bool dirty,
        std::uint32_t colours)
{
    CacheStateVector v(colours);
    for (std::uint32_t c = 0; c < colours; ++c) {
        if (mapped & (1u << c))
            v.mapped.set(c);
        if (stale & (1u << c))
            v.stale.set(c);
    }
    v.cacheDirty = dirty;
    return v;
}

std::uint8_t
maskOf(const BitVector &b)
{
    std::uint8_t m = 0;
    for (std::uint32_t c = 0; c < b.size(); ++c)
        if (b.test(c))
            m |= static_cast<std::uint8_t>(1u << c);
    return m;
}

} // namespace

AbstractSimulator::AbstractSimulator(const PolicyConfig &policy,
                                     SlotPlan plan, bool adversarial)
    : cfg(policy), slotPlan(std::move(plan)),
      lazy(policy.pmapKind == PmapKind::Lazy), advMode(adversarial)
{
    vic_assert(slotPlan.slots.size() <= kMaxSlots,
               "slot plan too large");
    vic_assert(slotPlan.dColours <= kMaxColours &&
                   slotPlan.iColours <= kMaxColours,
               "slot plan uses too many colours");
    for (const SlotPlan::Slot &s : slotPlan.slots)
        vic_assert(s.dColour < slotPlan.dColours &&
                       s.iColour < slotPlan.iColours,
                   "slot colour out of range");
}

std::vector<Event>
AbstractSimulator::alphabet() const
{
    // UnmapMove (remap at a fresh, still-aligned virtual address) is
    // observable only under per-VA residue tracking; everywhere else
    // it is identical to Unmap and would only blow up the state space.
    const bool per_va = !lazy && !cfg.cleanOnUnmap && cfg.equalVaOnly &&
        !cfg.brokenNoConsistency;

    std::vector<Event> out;
    for (std::uint8_t s = 0; s < slotPlan.slots.size(); ++s) {
        out.push_back({EventKind::Load, s});
        out.push_back({EventKind::Store, s});
        out.push_back({EventKind::IFetch, s});
        out.push_back({EventKind::Unmap, s});
        if (per_va)
            out.push_back({EventKind::UnmapMove, s});
    }
    out.push_back({EventKind::DmaIn, 0});
    out.push_back({EventKind::DmaOut, 0});
    return out;
}

ModelState
AbstractSimulator::initial() const
{
    return ModelState{};
}

bool
AbstractSimulator::conflicts(std::uint8_t a, std::uint8_t b) const
{
    if (cfg.breakAlignedAliases)
        return true;
    return dcol(a) != dcol(b);
}

// ---------------------------------------------------------------------
// Issued-op instrumentation
// ---------------------------------------------------------------------

/** Sets the active call-site label for ops issued in its scope. */
struct AbstractSimulator::SiteScope
{
    const AbstractSimulator &sim;
    const char *saved;
    SiteScope(const AbstractSimulator &s, const char *site)
        : sim(s), saved(s.curSite)
    {
        sim.curSite = site;
    }
    ~SiteScope() { sim.curSite = saved; }
    SiteScope(const SiteScope &) = delete;
    SiteScope &operator=(const SiteScope &) = delete;
};

bool
AbstractSimulator::issueOp(CacheKind cache, RequiredOp op,
                           CachePageId colour, bool present,
                           bool dirty) const
{
    if (rec)
        rec->ops.push_back({cache, op, colour, present, dirty, curSite});
    const bool apply = opCursor != skipAt;
    ++opCursor;
    return apply;
}

bool
AbstractSimulator::hazard(const ModelState &s)
{
    for (const ModelState::DLine &l : s.dline)
        if (l.present && l.dirty && !l.fresh)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------

void
AbstractSimulator::gtFlushData(ModelState &s, CachePageId c) const
{
    ModelState::DLine &l = s.dline[c];
    if (!issueOp(CacheKind::Data, RequiredOp::Flush, c, l.present,
                 l.present && l.dirty))
        return;
    if (!l.present)
        return;
    // A dirty write-back replaces memory's copy: memory now holds
    // whatever the line held. Flushing a STALE dirty line clobbers
    // fresh memory — the classic lost-update failure.
    if (l.dirty)
        s.memFresh = l.fresh;
    l = ModelState::DLine{};
}

void
AbstractSimulator::gtPurgeData(ModelState &s, CachePageId c) const
{
    ModelState::DLine &l = s.dline[c];
    if (!issueOp(CacheKind::Data, RequiredOp::Purge, c, l.present,
                 l.present && l.dirty))
        return;
    // Purging the only fresh copy silently loses the newest data;
    // that is detected at the next observing event, when no fresh
    // copy remains.
    l = ModelState::DLine{};
}

void
AbstractSimulator::gtPurgeInst(ModelState &s, CachePageId c) const
{
    ModelState::ILine &l = s.iline[c];
    if (!issueOp(CacheKind::Instruction, RequiredOp::Purge, c, l.present,
                 false))
        return;
    l = ModelState::ILine{};
}

std::string
AbstractSimulator::classify(const ModelState &s, bool ifetch) const
{
    (void)ifetch;
    bool any_fresh = s.memFresh;
    bool fresh_dirty = false;
    for (const ModelState::DLine &l : s.dline) {
        any_fresh |= l.present && l.fresh;
        fresh_dirty |= l.present && l.fresh && l.dirty;
    }
    for (const ModelState::ILine &l : s.iline)
        any_fresh |= l.present && l.fresh;

    if (!any_fresh)
        return "newest data was destroyed (lost dirty write-back or "
               "clobbering flush)";
    if (fresh_dirty)
        return "unflushed dirty cache page shadows the newest data";
    return "observed a stale copy while a newer one exists elsewhere";
}

std::optional<AbstractViolation>
AbstractSimulator::gtCpuAccess(ModelState &s, std::uint8_t slot,
                               AccessType t) const
{
    if (t == AccessType::IFetch) {
        ModelState::ILine &l = s.iline[icol(slot)];
        if (!l.present) {
            l.present = true;
            l.fresh = s.memFresh;  // fill from memory
        }
        if (!l.fresh)
            return AbstractViolation{ViolationKind::StaleIFetch, slot,
                                     classify(s, true)};
        return std::nullopt;
    }

    ModelState::DLine &l = s.dline[dcol(slot)];
    if (!l.present) {
        l.present = true;
        l.fresh = s.memFresh;  // fill from memory
        l.dirty = false;
    }
    if (t == AccessType::Store) {
        // The stored word is by definition the newest value; every
        // other copy becomes stale.
        const bool hit_stale = !l.fresh;
        if (hit_stale && rec)
            rec->staleStore = true;
        // Adversarial refinement: a store into a non-newest line can
        // only freshen the stored word — the line's other words stay
        // stale in the multi-word machine, so the line as a whole
        // remains non-newest (and is now dirty: a write-back hazard).
        l.fresh = advMode ? !hit_stale : true;
        l.dirty = true;
        s.memFresh = false;
        for (std::uint32_t c = 0; c < kMaxColours; ++c) {
            if (c != dcol(slot) && s.dline[c].present)
                s.dline[c].fresh = false;
            if (s.iline[c].present)
                s.iline[c].fresh = false;
        }
        return std::nullopt;
    }
    if (!l.fresh)
        return AbstractViolation{ViolationKind::StaleLoad, slot,
                                 classify(s, false)};
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Mapping order
// ---------------------------------------------------------------------

void
AbstractSimulator::addOrdered(ModelState &s, std::uint8_t slot) const
{
    vic_assert(s.numLive < kMaxSlots, "mapping order overflow");
    s.order[s.numLive++] = slot;
}

void
AbstractSimulator::removeOrdered(ModelState &s, std::uint8_t slot) const
{
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        if (s.order[i] == slot) {
            // Mirror the concrete swap-removal so later iteration
            // order matches ClassicPmap exactly.
            s.order[i] = s.order[s.numLive - 1];
            s.order[--s.numLive] = 0;
            return;
        }
    }
    vic_panic("removeOrdered: slot not in mapping order");
}

void
AbstractSimulator::normalize(ModelState &s) const
{
    if (lazy) {
        // Lazy semantics are independent of mapping order; canonical
        // ascending order collapses equivalent states.
        std::uint8_t n = 0;
        for (std::uint8_t k = 0; k < kMaxSlots; ++k)
            if (s.live[k])
                s.order[n++] = k;
        s.numLive = n;
    }
    for (std::uint8_t i = s.numLive; i < kMaxSlots; ++i)
        s.order[i] = 0;
}

// ---------------------------------------------------------------------
// The trap-and-retry CPU path (Cpu::access + Kernel::handleFault)
// ---------------------------------------------------------------------

bool
AbstractSimulator::accessPermitted(const ModelState &s,
                                   std::uint8_t slot,
                                   AccessType t) const
{
    if (!lazy) {
        switch (t) {
          case AccessType::Load: return true;
          case AccessType::Store: return s.hwWrite[slot];
          case AccessType::IFetch: return s.hwExec[slot];
        }
        return false;
    }
    const CacheStateVector d =
        makeVec(s.dMapped, s.dStale, s.dCacheDirty, slotPlan.dColours);
    const CacheStateVector i =
        makeVec(s.iMapped, s.iStale, false, slotPlan.iColours);
    const Protection p = LazyPmap::cacheStateProt(
        d, i, dcol(slot), icol(slot), cfg.useModifiedBit);
    return protPermits(p, t);
}

std::optional<AbstractViolation>
AbstractSimulator::cpuAccess(ModelState &s, std::uint8_t slot,
                             AccessType t) const
{
    // The concrete CPU retries a faulting access after the handler
    // resolves it; two resolution rounds (mapping fault, then
    // consistency fault) always suffice, but mirror the retry bound.
    for (int attempt = 0; attempt < 8; ++attempt) {
        if (!s.live[slot]) {
            // Demand mapping with default hints, as the kernel's
            // resolveMappingFault does.
            if (rec) {
                ++rec->traps;
                ++rec->pmapCalls;
            }
            if (lazy)
                lazyEnter(s, slot, t);
            else
                classicEnter(s, slot, t);
            continue;
        }
        if (!accessPermitted(s, slot, t)) {
            if (rec) {
                ++rec->traps;
                ++rec->pmapCalls;
            }
            bool resolved;
            if (lazy) {
                const SiteScope scope(
                    *this, t == AccessType::IFetch ? "lazy.ifetch-fault"
                                                   : "lazy.fault");
                lazyCacheControl(s,
                                 isWrite(t) ? MemOp::CpuWrite
                                            : MemOp::CpuRead,
                                 slot, t, false, true);
                resolved = true;
            } else {
                resolved = classicResolveFault(s, slot, t);
            }
            vic_assert(resolved,
                       "consistency fault not resolvable (%s slot %u)",
                       accessTypeName(t), slot);
            continue;
        }
        // Access proceeds: hardware sets the page-modified bit on a
        // write. (Untracked when the policy never reads it, so
        // equivalent behaviours collapse to equal states.)
        if (isWrite(t) && (!lazy || cfg.useModifiedBit))
            s.modbit[slot] = true;
        return gtCpuAccess(s, slot, t);
    }
    vic_panic("abstract access retry loop did not converge");
}

// ---------------------------------------------------------------------
// Lazy policy (through LazyPmap's extracted pure logic)
// ---------------------------------------------------------------------

void
AbstractSimulator::lazySync(ModelState &s) const
{
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        const std::uint8_t k = s.order[i];
        if (!s.modbit[k])
            continue;
        s.modbit[k] = false;
        if (!s.dCacheDirty) {
            vic_assert(
                std::popcount(static_cast<unsigned>(s.dMapped)) == 1,
                "modified bit with %u mapped colours",
                std::popcount(static_cast<unsigned>(s.dMapped)));
            s.dCacheDirty = true;
        }
    }
}

void
AbstractSimulator::lazyCacheControl(ModelState &s, MemOp op,
                                    std::optional<std::uint8_t> slot,
                                    AccessType access,
                                    bool will_overwrite,
                                    bool need_data) const
{
    if (cfg.useModifiedBit)
        lazySync(s);

    CacheStateVector d =
        makeVec(s.dMapped, s.dStale, s.dCacheDirty, slotPlan.dColours);
    CacheStateVector i =
        makeVec(s.iMapped, s.iStale, false, slotPlan.iColours);

    std::optional<CachePageId> cd, ci;
    if (slot) {
        cd = dcol(*slot);
        ci = icol(*slot);
    }

    const LazyPmap::Plan planned =
        LazyPmap::planCacheControl(d, i, op, cd, ci, access,
                                   will_overwrite, need_data,
                                   cfg.useNeedData,
                                   cfg.useWillOverwrite);

    s.dMapped = maskOf(d.mapped);
    s.dStale = maskOf(d.stale);
    s.dCacheDirty = d.cacheDirty;
    s.iMapped = maskOf(i.mapped);
    s.iStale = maskOf(i.stale);
    d.checkInvariants();
    i.checkInvariants();

    for (const LazyPmap::PlannedOp &p : planned) {
        if (p.cache == CacheKind::Instruction)
            gtPurgeInst(s, p.colour);
        else if (p.op == RequiredOp::Flush)
            gtFlushData(s, p.colour);
        else
            gtPurgeData(s, p.colour);
    }
}

void
AbstractSimulator::lazyEnter(ModelState &s, std::uint8_t slot,
                             AccessType t) const
{
    s.everTouched = true;
    s.live[slot] = true;
    s.modbit[slot] = false;
    addOrdered(s, slot);
    const SiteScope scope(*this, t == AccessType::IFetch
                                     ? "lazy.ifetch-enter"
                                     : "lazy.enter");
    lazyCacheControl(s, isWrite(t) ? MemOp::CpuWrite : MemOp::CpuRead,
                     slot, t, /*will_overwrite=*/false,
                     /*need_data=*/true);
}

void
AbstractSimulator::lazyUnmap(ModelState &s, std::uint8_t slot) const
{
    if (!s.live[slot])
        return;
    // Capture dirtiness carried by the modified bit, then drop the
    // translation; lazy unmap performs no cache operation.
    if (cfg.useModifiedBit)
        lazySync(s);
    s.modbit[slot] = false;
    s.live[slot] = false;
    removeOrdered(s, slot);
}

// ---------------------------------------------------------------------
// Classic policy (mirrors ClassicPmap)
// ---------------------------------------------------------------------

bool
AbstractSimulator::classicColourPossiblyDirty(const ModelState &s,
                                              CachePageId c,
                                              bool base_modified) const
{
    if (base_modified)
        return true;
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        const std::uint8_t k = s.order[i];
        if (dcol(k) == c && s.modbit[k])
            return true;
    }
    return false;
}

void
AbstractSimulator::classicCleanResidue(ModelState &s,
                                       bool base_modified) const
{
    if (!s.hasResidue)
        return;
    // Dirt written through a live aligned sibling (or the mapping
    // being removed right now) lives in the residue's cache page too.
    const bool dirty = s.residueDirty ||
        classicColourPossiblyDirty(s, dcol(s.residueSlot),
                                   base_modified);
    if (dirty)
        gtFlushData(s, dcol(s.residueSlot));
    else
        gtPurgeData(s, dcol(s.residueSlot));
    if (s.residueExec)
        gtPurgeInst(s, icol(s.residueSlot));
    s.hasResidue = false;
    s.residueSlot = 0;
    s.residueGen = s.residueDirty = s.residueExec = false;
}

void
AbstractSimulator::classicCleanThrough(ModelState &s, std::uint8_t slot,
                                       bool flush_dirty,
                                       bool had_exec) const
{
    if (flush_dirty)
        gtFlushData(s, dcol(slot));
    else
        gtPurgeData(s, dcol(slot));
    if (had_exec)
        gtPurgeInst(s, icol(slot));
}

void
AbstractSimulator::classicEnterExecMode(ModelState &s,
                                        CachePageId icolour) const
{
    // Flush every colour a live mapping may have dirtied, consuming
    // modified bits — but only the first mapping of an already-flushed
    // colour is consulted, exactly as the concrete loop works.
    std::array<bool, kMaxColours> flushed{};
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        const std::uint8_t k = s.order[i];
        const CachePageId c = dcol(k);
        if (flushed[c])
            continue;
        const bool modified = s.modbit[k];
        s.modbit[k] = false;
        if (classicColourPossiblyDirty(s, c, modified)) {
            gtFlushData(s, c);
            flushed[c] = true;
        }
    }
    // A dirty residue (Tut) holds newest data too; no live mapping's
    // modified bit covers it.
    if (s.hasResidue && s.residueDirty) {
        gtFlushData(s, dcol(s.residueSlot));
        s.residueDirty = false;
    }
    gtPurgeInst(s, icolour);
    for (std::uint8_t i = 0; i < s.numLive; ++i)
        s.hwWrite[s.order[i]] = false;
    s.execMode = true;
}

void
AbstractSimulator::classicEnterWriteMode(ModelState &s) const
{
    for (std::uint8_t i = 0; i < s.numLive; ++i)
        s.hwExec[s.order[i]] = false;
    s.execMode = false;
}

void
AbstractSimulator::classicBreakMapping(ModelState &s,
                                       std::uint8_t slot) const
{
    const bool modified = s.modbit[slot];
    s.modbit[slot] = false;
    s.live[slot] = false;  // translation dropped before the dirtiness
                           // scan, as in the concrete breakMapping
    const bool dirty =
        classicColourPossiblyDirty(s, dcol(slot), modified);
    classicCleanThrough(s, slot, dirty, /*had_exec=*/true);
    removeOrdered(s, slot);
    s.hwWrite[slot] = s.hwExec[slot] = false;
}

void
AbstractSimulator::classicEnter(ModelState &s, std::uint8_t slot,
                                AccessType t) const
{
    s.everTouched = true;

    if (cfg.brokenNoConsistency) {
        s.live[slot] = true;
        s.modbit[slot] = false;
        s.hwWrite[slot] = true;
        s.hwExec[slot] = true;
        addOrdered(s, slot);
        return;
    }

    // A matching dirty residue is consumed without a flush; its
    // dirtiness is carried into the new mapping's modified bit (or
    // flushed right here when this very enter switches to exec mode).
    bool carry_dirty = false;
    if (s.hasResidue) {
        const bool matches = cfg.equalVaOnly
            ? (s.residueSlot == slot && s.residueGen == s.vaGen[slot])
            : (dcol(s.residueSlot) == dcol(slot));
        if (!matches) {
            const SiteScope scope(*this,
                                  "classic.enter.clean-residue");
            classicCleanResidue(s);
            // No purge of the NEW colour: the residue is the only
            // place this frame's lines survive outside live
            // mappings (any earlier residue was cleaned when it was
            // replaced), so the new cache page cannot hold the
            // frame's stale data. The necessity analyzer proves
            // every instance of such a purge redundant.
        } else {
            carry_dirty = s.residueDirty;
            s.hasResidue = false;
            s.residueSlot = 0;
            s.residueGen = s.residueDirty = s.residueExec = false;
        }
    }

    bool conflicting_alias = false;
    std::vector<std::uint8_t> to_break;
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        const std::uint8_t k = s.order[i];
        if (!conflicts(k, slot))
            continue;
        conflicting_alias = true;
        if (isWrite(t) || s.hwWrite[k] || s.modbit[k])
            to_break.push_back(k);
    }
    {
        const SiteScope scope(*this, "classic.enter.break-alias");
        for (std::uint8_t k : to_break)
            classicBreakMapping(s, k);
    }

    bool eff_write = true, eff_exec = true;  // vmProt == all
    if (!isWrite(t) && conflicting_alias)
        eff_write = false;

    if (t == AccessType::IFetch && eff_exec) {
        if (!s.execMode) {
            if (carry_dirty) {
                const SiteScope scope(*this,
                                      "classic.enter.carry-flush");
                gtFlushData(s, dcol(slot));
                carry_dirty = false;
            }
            const SiteScope scope(*this, "classic.exec-mode");
            classicEnterExecMode(s, icol(slot));
        }
        eff_write = false;
    } else {
        if (isWrite(t) && s.execMode)
            classicEnterWriteMode(s);
        if (s.execMode)
            eff_write = false;
        else
            eff_exec = false;
    }

    s.live[slot] = true;
    s.modbit[slot] = carry_dirty;
    s.hwWrite[slot] = eff_write;
    s.hwExec[slot] = eff_exec;
    addOrdered(s, slot);
}

void
AbstractSimulator::classicUnmap(ModelState &s, std::uint8_t slot) const
{
    if (!s.live[slot])
        return;
    const bool modified = s.modbit[slot];
    s.modbit[slot] = false;
    s.live[slot] = false;
    s.hwWrite[slot] = s.hwExec[slot] = false;
    removeOrdered(s, slot);

    if (cfg.brokenNoConsistency) {
        // Leave whatever is in the cache.
    } else if (cfg.cleanOnUnmap) {
        const SiteScope scope(*this, "classic.unmap.clean");
        const bool dirty =
            classicColourPossiblyDirty(s, dcol(slot), modified);
        classicCleanThrough(s, slot, dirty, /*had_exec=*/true);
    } else {
        // Tut residue: one per frame; a pre-existing residue at a
        // different address must be cleaned now.
        const SiteScope scope(*this, "classic.unmap.clean-residue");
        if (s.hasResidue && !(s.residueSlot == slot &&
                              s.residueGen == s.vaGen[slot]))
            classicCleanResidue(s, modified &&
                                       dcol(slot) ==
                                           dcol(s.residueSlot));
        s.hasResidue = true;
        s.residueSlot = slot;
        s.residueGen = s.vaGen[slot];
        s.residueDirty = modified;
        s.residueExec = true;  // vmProt == all
    }
}

bool
AbstractSimulator::classicResolveFault(ModelState &s, std::uint8_t slot,
                                       AccessType t) const
{
    if (cfg.brokenNoConsistency) {
        s.hwWrite[slot] = true;
        s.hwExec[slot] = true;
        return t != AccessType::Load;
    }

    if (t == AccessType::IFetch) {
        // Only the write-to-execute mode switch needs cache work.
        // While exec mode holds, stores trap (write-xor-execute) and
        // DMA input purges eagerly, so no instruction cache page can
        // be stale — the necessity analyzer proves the old
        // purge-on-every-ifetch-fault redundant in every instance.
        if (!s.execMode) {
            const SiteScope scope(*this, "classic.exec-mode");
            classicEnterExecMode(s, icol(slot));
        }
        s.hwWrite[slot] = false;
        s.hwExec[slot] = true;
        return true;
    }

    if (t != AccessType::Store)
        return false;  // reads are never denied for consistency

    if (s.execMode)
        classicEnterWriteMode(s);

    // A residue at a conflicting address is an alias too: clean it
    // before the store makes its cache page stale.
    if (s.hasResidue && conflicts(s.residueSlot, slot)) {
        const SiteScope scope(*this, "classic.fault.clean-residue");
        classicCleanResidue(s);
    }

    std::vector<std::uint8_t> to_break;
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        const std::uint8_t k = s.order[i];
        if (k != slot && conflicts(k, slot))
            to_break.push_back(k);
    }
    {
        const SiteScope scope(*this, "classic.fault.break-alias");
        for (std::uint8_t k : to_break)
            classicBreakMapping(s, k);
    }

    s.hwWrite[slot] = true;
    s.hwExec[slot] = false;
    return true;
}

void
AbstractSimulator::classicDmaRead(ModelState &s) const
{
    if (cfg.brokenNoConsistency)
        return;
    if (!s.everTouched)
        return;
    const SiteScope scope(*this, "classic.dma-out.flush");
    if (rec)
        ++rec->pmapCalls;
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        const std::uint8_t k = s.order[i];
        if (s.modbit[k]) {
            s.modbit[k] = false;
            gtFlushData(s, dcol(k));
        }
    }
    if (s.hasResidue && s.residueDirty) {
        gtFlushData(s, dcol(s.residueSlot));
        s.residueDirty = false;
    }
}

void
AbstractSimulator::classicDmaWrite(ModelState &s) const
{
    if (cfg.brokenNoConsistency)
        return;
    if (!s.everTouched)
        return;
    const SiteScope scope(*this, "classic.dma-in.purge");
    if (rec)
        ++rec->pmapCalls;
    for (std::uint8_t i = 0; i < s.numLive; ++i) {
        const std::uint8_t k = s.order[i];
        s.modbit[k] = false;
        gtPurgeData(s, dcol(k));
        gtPurgeInst(s, icol(k));  // vmProt == all
    }
    if (s.hasResidue) {
        gtPurgeData(s, dcol(s.residueSlot));
        if (s.residueExec)
            gtPurgeInst(s, icol(s.residueSlot));
        s.hasResidue = false;
        s.residueSlot = 0;
        s.residueGen = s.residueDirty = s.residueExec = false;
    }
}

// ---------------------------------------------------------------------
// Step
// ---------------------------------------------------------------------

std::optional<AbstractViolation>
AbstractSimulator::step(ModelState &s, const Event &e) const
{
    opCursor = 0;
    std::optional<AbstractViolation> violation;

    switch (e.kind) {
      case EventKind::Load:
        violation = cpuAccess(s, e.slot, AccessType::Load);
        break;
      case EventKind::Store:
        violation = cpuAccess(s, e.slot, AccessType::Store);
        break;
      case EventKind::IFetch:
        violation = cpuAccess(s, e.slot, AccessType::IFetch);
        break;

      case EventKind::Unmap:
      case EventKind::UnmapMove:
        if (lazy)
            lazyUnmap(s, e.slot);
        else
            classicUnmap(s, e.slot);
        if (e.kind == EventKind::UnmapMove)
            s.vaGen[e.slot] = !s.vaGen[e.slot];
        break;

      case EventKind::DmaIn:
        // Policy preparation, then the device writes word 0.
        if (lazy) {
            if (s.everTouched) {
                const SiteScope scope(*this, "lazy.dma-in");
                if (rec)
                    ++rec->pmapCalls;
                lazyCacheControl(s, MemOp::DmaWrite, std::nullopt,
                                 AccessType::Load, false, false);
            }
        } else {
            classicDmaWrite(s);
        }
        s.memFresh = true;
        for (std::uint32_t c = 0; c < kMaxColours; ++c) {
            // Cached copies go stale; dirty lines stay dirty and will
            // clobber the device's data if ever written back.
            if (s.dline[c].present)
                s.dline[c].fresh = false;
            if (s.iline[c].present)
                s.iline[c].fresh = false;
        }
        break;

      case EventKind::DmaOut:
        if (lazy) {
            if (s.everTouched) {
                const SiteScope scope(*this, "lazy.dma-out");
                if (rec)
                    ++rec->pmapCalls;
                lazyCacheControl(s, MemOp::DmaRead, std::nullopt,
                                 AccessType::Load, false, true);
            }
        } else {
            classicDmaRead(s);
        }
        if (!s.memFresh)
            violation = AbstractViolation{ViolationKind::StaleDmaOut, 0,
                                          classify(s, false)};
        break;
    }

    normalize(s);
    return violation;
}

std::optional<AbstractViolation>
AbstractSimulator::stepTraced(ModelState &s, const Event &e,
                              StepTrace &out) const
{
    out = StepTrace{};
    rec = &out;
    const std::optional<AbstractViolation> v = step(s, e);
    rec = nullptr;
    return v;
}

std::optional<AbstractViolation>
AbstractSimulator::stepSkipping(ModelState &s, const Event &e,
                                std::size_t skip) const
{
    skipAt = static_cast<long>(skip);
    const std::optional<AbstractViolation> v = step(s, e);
    skipAt = -1;
    return v;
}

} // namespace vic::verify
