#include "core/lazy_pmap.hh"

#include "common/logging.hh"
#include "core/lazy_rules.hh"

namespace vic
{

LazyPmap::LazyPmap(Machine &m, const PolicyConfig &policy_config)
    : Pmap(m, policy_config),
      dColours(m.dcache().geometry().numColours()),
      iColours(m.icache().geometry().numColours()),
      pages(m.params().numFrames),
      statSyncs(m.stats().counter("pmap.modified_bit_syncs"))
{
}

PhysPageInfo &
LazyPmap::getInfo(FrameId frame)
{
    return pages.getOrMake(frame, dColours, iColours);
}

class LazyPmap::FrameView : public MappingView
{
  public:
    FrameView(LazyPmap &p, FrameId f, PhysPageInfo *i)
        : MappingView(p, f, i ? &i->mappings : nullptr), lazy(p), info(i)
    {}

    void
    install(SpaceVa va, Protection vm_prot, Protection hw_prot,
            bool modified)
    {
        info->addMapping(va, vm_prot, translate(va, hw_prot, modified));
    }

    bool
    drop(const VaMapping &m)
    {
        const SpaceVa va = m.va;
        const bool modified = untranslate(va);
        const bool removed = info->removeMapping(va);
        vic_assert(removed, "mapping list out of sync with page table");
        return modified;
    }

    CacheStateVector &dstate() { return info->dstate; }
    CacheStateVector &istate() { return info->istate; }

    void
    applyProtections()
    {
        for (const VaMapping &m : info->mappings)
            setHardwareProt(
                m, m.vmProt.intersect(lazy.cacheProtFor(*info, m)));
    }

    void countSync() { ++lazy.statSyncs; }

  private:
    LazyPmap &lazy;
    PhysPageInfo *info;
};

LazyPmap::FrameView
LazyPmap::viewOf(const PageTableEntry *pte)
{
    if (!pte)
        return FrameView(*this, 0, nullptr);
    return FrameView(*this, pte->frame, &getInfo(pte->frame));
}

const PhysPageInfo *
LazyPmap::info(FrameId frame) const
{
    return pages.find(frame);
}

CachePageState
LazyPmap::dataState(FrameId frame, CachePageId colour) const
{
    const PhysPageInfo *pi = info(frame);
    return pi ? pi->dstate.decode(colour) : CachePageState::Empty;
}

CachePageState
LazyPmap::instState(FrameId frame, CachePageId colour) const
{
    const PhysPageInfo *pi = info(frame);
    return pi ? pi->istate.decode(colour) : CachePageState::Empty;
}

Protection
LazyPmap::cacheStateProt(const CacheStateVector &d,
                         const CacheStateVector &i, CachePageId cd,
                         CachePageId ci, bool use_modified_bit)
{
    Protection p;

    // Reads are safe iff this mapping's data cache page is mapped and
    // not stale. (While some cache page is dirty it is the only mapped
    // one, so unaligned reads are automatically denied.)
    p.read = d.mapped.test(cd) && !d.stale.test(cd);

    // Instruction fetches fill the instruction cache from memory, so
    // they are additionally unsafe while ANY data cache page is dirty
    // (memory would be stale) — instructions never align with data.
    p.execute = i.mapped.test(ci) && !i.stale.test(ci) && !d.cacheDirty;

    // Writes are safe if the page is already dirty through this
    // aligned cache page, or — with the modified-bit optimisation — if
    // this is the unique mapped data cache page and the page has no
    // live instruction-cache presence to invalidate.
    const bool dirty_here = d.cacheDirty && d.mapped.test(cd);
    const bool modbit_ok = use_modified_bit && !d.cacheDirty &&
        d.mapped.test(cd) && !d.stale.test(cd) &&
        d.mapped.exactlyOne() && i.mapped.none();
    p.write = dirty_here || modbit_ok;

    return p;
}

Protection
LazyPmap::cacheProtFor(const PhysPageInfo &info, const VaMapping &m) const
{
    return cacheStateProt(info.dstate, info.istate, dColourOf(m.va.va),
                          iColourOf(m.va.va), cfg.useModifiedBit);
}

void
LazyPmap::Plan::push(const PlannedOp &op)
{
    vic_assert(count < ops.size(),
               "CacheControl planned more than %zu cache operations",
               ops.size());
    ops[count++] = op;
}

LazyPmap::Plan
LazyPmap::planCacheControl(CacheStateVector &dstate,
                           CacheStateVector &istate, MemOp op,
                           std::optional<CachePageId> d_target,
                           std::optional<CachePageId> i_target,
                           AccessType access, bool will_overwrite,
                           bool need_data, bool use_need_data,
                           bool use_will_overwrite)
{
    Plan planned;
    const bool cpu_op = op == MemOp::CpuRead || op == MemOp::CpuWrite;

    // --- Stanza 2: displace the dirty data cache page unless the
    // operation is a data reference aligned with it. Instruction
    // fetches never align with data, so they always force this.
    if (dstate.cacheDirty) {
        const CachePageId w = dstate.dirtyColour();
        const bool aligned_data_ref =
            cpu_op && access != AccessType::IFetch && *d_target == w;
        if (!aligned_data_ref) {
            // A DMA-write overwrites memory anyway, so the dirty data
            // need only be purged; otherwise it is flushed unless the
            // caller said the data is dead and config E permits the
            // downgrade.
            const bool flush =
                op != MemOp::DmaWrite && (need_data || !use_need_data);
            planned.push(
                {CacheKind::Data,
                 flush ? RequiredOp::Flush : RequiredOp::Purge, w});
            dstate.cacheDirty = false;
            // A flushed (or purged) dirty line leaves the cache — on
            // this machine a flush writes back AND invalidates — so
            // the cache page's state is Empty. That holds under
            // DMA-read too: the paper's Table 2 keeps the page
            // Present there, but with an invalidating flush the
            // Present claim is wrong bookkeeping, and the necessity
            // analyzer proves it costs a redundant purge of the
            // (absent) page on its next differently-mapped use.
            dstate.mapped.reset(w);
        }
    }

    // --- Stanza 3: the target cache page must not be stale.
    if (cpu_op) {
        if (access == AccessType::IFetch) {
            if (istate.stale.test(*i_target)) {
                planned.push({CacheKind::Instruction, RequiredOp::Purge,
                              *i_target});
                istate.stale.reset(*i_target);
            }
        } else if (dstate.stale.test(*d_target)) {
            // Config F: a page about to be entirely overwritten leaves
            // the stale state without the purge.
            if (!(will_overwrite && use_will_overwrite))
                planned.push(
                    {CacheKind::Data, RequiredOp::Purge, *d_target});
            dstate.stale.reset(*d_target);
        }
    }

    // --- Stanza 4: writes into the memory system make every mapped
    // cache page (in both caches) stale and unmapped; a CPU write then
    // re-maps its own cache page as the unique dirty one.
    if (op == MemOp::DmaWrite || op == MemOp::CpuWrite) {
        dstate.stale.orWith(dstate.mapped);
        dstate.mapped.clearAll();
        istate.stale.orWith(istate.mapped);
        istate.mapped.clearAll();
        if (op == MemOp::CpuWrite) {
            dstate.stale.reset(*d_target);
            dstate.mapped.set(*d_target);
            dstate.cacheDirty = true;
        }
    }

    // --- Stanza 5: a read marks the target cache page mapped.
    if (op == MemOp::CpuRead) {
        if (access == AccessType::IFetch)
            istate.mapped.set(*i_target);
        else
            dstate.mapped.set(*d_target);
    }

    return planned;
}

void
LazyPmap::enter(SpaceVa va, FrameId frame, Protection vm_prot,
                AccessType access, const EnterHints &hints)
{
    va.va = mach.pageTable().pageBase(va.va);
    vic_assert(mach.pageTable().lookup(va) == nullptr,
               "enter over live mapping space=%u va=%llx", va.space,
               (unsigned long long)va.va.value);
    FrameView v(*this, frame, &getInfo(frame));
    LazyRules<FrameView>(cfg).enter(v, va, vm_prot, access, hints);
}

void
LazyPmap::remove(SpaceVa va)
{
    va.va = mach.pageTable().pageBase(va.va);
    FrameView v = viewOf(mach.pageTable().lookup(va));
    LazyRules<FrameView>(cfg).remove(v, va);
}

void
LazyPmap::protect(SpaceVa va, Protection vm_prot)
{
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    vic_assert(pte != nullptr, "protect of unmapped page");
    PhysPageInfo &pi = getInfo(pte->frame);

    if (cfg.useModifiedBit) {
        FrameView v(*this, pte->frame, &pi);
        LazyRules<FrameView>::syncDirty(v);
    }

    VaMapping *m = pi.findMapping(va);
    vic_assert(m != nullptr, "mapping list out of sync with page table");
    m->vmProt = vm_prot;
    setHardwareProt(*m, vm_prot.intersect(cacheProtFor(pi, *m)));
}

bool
LazyPmap::resolveConsistencyFault(SpaceVa va, AccessType access)
{
    va.va = mach.pageTable().pageBase(va.va);
    FrameView v = viewOf(mach.pageTable().lookup(va));
    return LazyRules<FrameView>(cfg).resolveFault(v, va, access);
}

void
LazyPmap::dmaRead(FrameId frame, bool need_data)
{
    PhysPageInfo *pi = pages.find(frame);
    if (!pi)
        return;  // never cached: memory is trivially current
    FrameView v(*this, frame, pi);
    LazyRules<FrameView>(cfg).dmaRead(v, need_data);
}

void
LazyPmap::dmaWrite(FrameId frame)
{
    // Even a never-mapped frame gets state here: after the device
    // write, nothing is cached, which the default (empty) state
    // already encodes — so absence is fine too.
    PhysPageInfo *pi = pages.find(frame);
    if (!pi)
        return;
    FrameView v(*this, frame, pi);
    LazyRules<FrameView>(cfg).dmaWrite(v);
}

void
LazyPmap::frameFreed(FrameId frame)
{
    const PhysPageInfo *pi = pages.find(frame);
    if (!pi)
        return;
    vic_assert(pi->mappings.empty(),
               "frame %llu freed with live mappings",
               (unsigned long long)frame);
    // Keep the cache state: if the frame is reused at an aligning
    // address no consistency work will be needed (the lazy win).
}

std::vector<SpaceVa>
LazyPmap::mappingsOf(FrameId frame) const
{
    std::vector<SpaceVa> out;
    const PhysPageInfo *pi = pages.find(frame);
    if (!pi)
        return out;
    for (const auto &m : pi->mappings)
        out.push_back(m.va);
    return out;
}

std::optional<CachePageId>
LazyPmap::preferredColour(FrameId frame) const
{
    const PhysPageInfo *pi = pages.find(frame);
    if (!pi)
        return std::nullopt;
    const CacheStateVector &d = pi->dstate;
    if (d.cacheDirty)
        return d.dirtyColour();
    if (d.mapped.any())
        return d.mapped.findFirst();
    if (d.stale.any()) {
        // Any non-stale colour avoids the purge; report the first so
        // the free list has a single representative.
        const std::uint32_t c = d.stale.findFirstClear();
        if (c < d.stale.size())
            return c;
    }
    return std::nullopt;
}

} // namespace vic
