#include "verify/abstract_model.hh"

#include <utility>

#include "common/logging.hh"
#include "core/classic_rules.hh"
#include "core/lazy_rules.hh"
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

/** A slot's colour, in the data and the instruction cache alike. */
CachePageId
colourOf(std::uint8_t slot)
{
    return kSlots[slot].colour;
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
                                     bool adversarial)
    : cfg(policy), lazy(policy.pmapKind == PmapKind::Lazy),
      advMode(adversarial)
{
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
    for (std::uint8_t s = 0; s < kSlots.size(); ++s) {
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

// ---------------------------------------------------------------------
// Issued-op instrumentation
// ---------------------------------------------------------------------

bool
AbstractSimulator::issueOp(CacheKind cache, RequiredOp op,
                           CachePageId colour, bool present, bool dirty,
                           const char *site) const
{
    if (rec)
        rec->ops.push_back({cache, op, colour, present, dirty, site});
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
AbstractSimulator::gtFlushData(ModelState &s, CachePageId c,
                               const char *site) const
{
    ModelState::DLine &l = s.dline[c];
    if (!issueOp(CacheKind::Data, RequiredOp::Flush, c, l.present,
                 l.present && l.dirty, site))
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
AbstractSimulator::gtPurgeData(ModelState &s, CachePageId c,
                               const char *site) const
{
    ModelState::DLine &l = s.dline[c];
    if (!issueOp(CacheKind::Data, RequiredOp::Purge, c, l.present,
                 l.present && l.dirty, site))
        return;
    // Purging the only fresh copy silently loses the newest data;
    // that is detected at the next observing event, when no fresh
    // copy remains.
    l = ModelState::DLine{};
}

void
AbstractSimulator::gtPurgeInst(ModelState &s, CachePageId c,
                               const char *site) const
{
    ModelState::ILine &l = s.iline[c];
    if (!issueOp(CacheKind::Instruction, RequiredOp::Purge, c, l.present,
                 false, site))
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
        ModelState::ILine &l = s.iline[colourOf(slot)];
        if (!l.present) {
            l.present = true;
            l.fresh = s.memFresh;  // fill from memory
        }
        if (!l.fresh)
            return AbstractViolation{ViolationKind::StaleIFetch, slot,
                                     classify(s, true)};
        return std::nullopt;
    }

    ModelState::DLine &l = s.dline[colourOf(slot)];
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
            if (c != colourOf(slot) && s.dline[c].present)
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
// State canonicalisation
// ---------------------------------------------------------------------

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
// The shared pmap rules over the model
// ---------------------------------------------------------------------

/**
 * The model state as ClassicRules and LazyRules see a frame (the View
 * of core/classic_rules.hh): the live alias slots, in the state's list
 * order, are the mappings, each entered with every VM permission, and
 * cache ops act on the freshness lattice. The policy bookkeeping that
 * ModelState packs into bits — the Tut residue, and the lazy Table 3
 * vectors — is unpacked on construction and packed back on
 * destruction.
 */
class AbstractSimulator::ModelView
{
  public:
    /** A slot's virtual address: the slot and its generation, which
     *  UnmapMove flips. */
    struct Va
    {
        std::uint8_t slot = 0;
        bool gen = false;
        bool operator==(const Va &) const = default;
    };
    using Mapping = std::uint8_t;  ///< a live slot

    ModelView(const AbstractSimulator &simulator, ModelState &state)
        : sim(simulator), s(state)
    {
        if (s.hasResidue)
            res = ClassicResidue<Va>{{s.residueSlot, s.residueGen},
                                     s.residueDirty, s.residueExec};
        if (sim.lazy) {
            d = makeVec(s.dMapped, s.dStale, s.dCacheDirty, kSlotColours);
            i = makeVec(s.iMapped, s.iStale, false, kSlotColours);
        }
    }

    ~ModelView()
    {
        s.hasResidue = res.has_value();
        s.residueSlot = res ? res->va.slot : 0;
        s.residueGen = res && res->va.gen;
        s.residueDirty = res && res->dirty;
        s.residueExec = res && res->exec;
        if (sim.lazy) {
            s.dMapped = maskOf(d.mapped);
            s.dStale = maskOf(d.stale);
            s.dCacheDirty = d.cacheDirty;
            s.iMapped = maskOf(i.mapped);
            s.iStale = maskOf(i.stale);
        }
    }

    ModelView(const ModelView &) = delete;
    ModelView &operator=(const ModelView &) = delete;

    CachePageId dColour(Va va) const { return colourOf(va.slot); }
    CachePageId iColour(Va va) const { return colourOf(va.slot); }
    static bool sameAddress(Va a, Va b) { return a == b; }

    std::size_t size() const { return s.numLive; }
    Mapping at(std::size_t k) const { return s.order[k]; }

    std::optional<Mapping>
    find(Va va) const
    {
        if (s.live[va.slot])
            return va.slot;
        return std::nullopt;
    }

    Va vaOf(Mapping slot) const { return {slot, s.vaGen[slot]}; }
    static Protection vmProt(Mapping) { return Protection::all(); }

    /** What the slot's translation permits: the stored bits, or under
     *  the lazy policy what its Table 3 state allows. */
    Protection
    hwProt(Mapping slot) const
    {
        if (sim.lazy)
            return LazyPmap::cacheStateProt(d, i, colourOf(slot),
                                            colourOf(slot),
                                            sim.cfg.useModifiedBit);
        return {true, s.hwWrite[slot], s.hwExec[slot]};
    }

    bool modified(Mapping slot) const { return s.modbit[slot]; }
    bool takeModified(Mapping slot)
    { return std::exchange(s.modbit[slot], false); }

    void
    setHardwareProt(Mapping slot, Protection prot)
    {
        s.hwWrite[slot] = prot.write;
        s.hwExec[slot] = prot.execute;
    }

    void
    install(Va va, Protection, Protection hw_prot, bool modified)
    {
        vic_assert(s.numLive < kMaxSlots, "mapping order overflow");
        s.order[s.numLive++] = va.slot;
        s.everTouched = true;
        s.live[va.slot] = true;
        s.modbit[va.slot] = modified;
        setHardwareProt(va.slot, hw_prot);
    }

    bool
    drop(Mapping slot)
    {
        // The concrete pmaps' swap-removal, so that later iteration
        // order matches ClassicPmap's exactly.
        std::uint8_t k = 0;
        while (k < s.numLive && s.order[k] != slot)
            ++k;
        vic_assert(k < s.numLive, "slot not in mapping order");
        s.order[k] = s.order[s.numLive - 1];
        s.order[--s.numLive] = 0;
        s.live[slot] = false;
        setHardwareProt(slot, Protection::none());
        return takeModified(slot);
    }

    std::optional<ClassicResidue<Va>> &residue() { return res; }
    bool &execMode() { return s.execMode; }

    CacheStateVector &dstate() { return d; }
    CacheStateVector &istate() { return i; }
    /** Nothing to store: hwProt derives the lazy protections from the
     *  Table 3 bits. */
    void applyProtections() {}
    void countSync() {}

    void flushData(CachePageId colour, const Pmap::OpSite &site)
    { sim.gtFlushData(s, colour, site.label); }
    void purgeData(CachePageId colour, const Pmap::OpSite &site)
    { sim.gtPurgeData(s, colour, site.label); }
    void purgeInst(CachePageId colour, const Pmap::OpSite &site)
    { sim.gtPurgeInst(s, colour, site.label); }

    void
    chargeBookkeeping()
    {
        if (sim.rec)
            ++sim.rec->pmapCalls;
    }

  private:
    const AbstractSimulator &sim;
    ModelState &s;
    std::optional<ClassicResidue<Va>> res;
    CacheStateVector d;
    CacheStateVector i;
};

template <typename F>
auto
AbstractSimulator::withPolicy(ModelState &s, F &&f) const
{
    ModelView v(*this, s);
    if (lazy) {
        LazyRules<ModelView> rules(cfg);
        return f(rules, v);
    }
    ClassicRules<ModelView> rules(cfg);
    return f(rules, v);
}

// ---------------------------------------------------------------------
// The trap-and-retry CPU path (Cpu::access + Kernel::handleFault)
// ---------------------------------------------------------------------

std::optional<AbstractViolation>
AbstractSimulator::cpuAccess(ModelState &s, std::uint8_t slot,
                             AccessType t) const
{
    const ModelView::Va va{slot, s.vaGen[slot]};
    // The concrete CPU retries a faulting access after the handler
    // resolves it; two resolution rounds (mapping fault, then
    // consistency fault) always suffice, but mirror the retry bound.
    for (int attempt = 0; attempt < 8; ++attempt) {
        if (!s.live[slot]) {
            // Demand mapping with default hints, as the kernel's
            // resolveMappingFault does.
            if (rec)
                ++rec->traps;
            withPolicy(s, [&](auto &rules, ModelView &v) {
                rules.enter(v, va, Protection::all(), t, {});
            });
            continue;
        }
        if (!protPermits(ModelView(*this, s).hwProt(slot), t)) {
            if (rec)
                ++rec->traps;
            const bool resolved =
                withPolicy(s, [&](auto &rules, ModelView &v) {
                    return rules.resolveFault(v, va, t);
                });
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
        withPolicy(s, [&](auto &rules, ModelView &v) {
            rules.remove(v, v.vaOf(e.slot));
        });
        if (e.kind == EventKind::UnmapMove)
            s.vaGen[e.slot] = !s.vaGen[e.slot];
        break;

      case EventKind::DmaIn:
        // Policy preparation (a pmap has nothing to prepare for a
        // frame it never saw), then the device writes word 0.
        if (s.everTouched)
            withPolicy(s, [](auto &rules, ModelView &v) {
                rules.dmaWrite(v);
            });
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
        if (s.everTouched)
            withPolicy(s, [](auto &rules, ModelView &v) {
                rules.dmaRead(v, /*need_data=*/true);
            });
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
