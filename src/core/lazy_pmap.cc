#include "core/lazy_pmap.hh"

#include "common/logging.hh"

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

void
LazyPmap::syncDirtyFromModifiedBits(PhysPageInfo &info)
{
    for (auto &m : info.mappings) {
        if (m.pte->modified) {
            m.pte->modified = false;
            ++statSyncs;
            if (!info.dstate.cacheDirty) {
                // A write was permitted without a fault, which the
                // protection logic only allows while exactly one data
                // cache page is mapped.
                vic_assert(info.dstate.mapped.exactlyOne(),
                           "modified bit with %u mapped colours",
                           info.dstate.mapped.count());
                info.dstate.cacheDirty = true;
            }
        }
    }
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
LazyPmap::applyProtections(PhysPageInfo &info)
{
    for (const auto &m : info.mappings)
        setHardwareProt(m, m.vmProt.intersect(cacheProtFor(info, m)));
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
LazyPmap::cacheControl(FrameId frame, PhysPageInfo &info, MemOp op,
                       std::optional<SpaceVa> target, AccessType access,
                       bool will_overwrite, bool need_data,
                       Reason reason)
{
    mach.clock().advance(mach.params().pmapOverheadCycles);

    if (cfg.useModifiedBit)
        syncDirtyFromModifiedBits(info);

    const bool cpu_op = op == MemOp::CpuRead || op == MemOp::CpuWrite;
    vic_assert(cpu_op == target.has_value(),
               "cacheControl: %s and target mismatch", memOpName(op));
    vic_assert(!(op == MemOp::CpuWrite && access == AccessType::IFetch),
               "instruction fetches cannot write");

    std::optional<CachePageId> cd, ci;
    if (target) {
        cd = dColourOf(target->va);
        ci = iColourOf(target->va);
    }

    // Stanzas 2-5: decide state transitions and the required cache
    // operations, then perform the latter on the real caches. The
    // planned operations depend only on the pre-operation state, so
    // executing them after the full plan is equivalent to the
    // interleaved form.
    const Plan planned = planCacheControl(
        info.dstate, info.istate, op, cd, ci, access, will_overwrite,
        need_data, cfg.useNeedData, cfg.useWillOverwrite);

    for (const PlannedOp &p : planned) {
        if (p.cache == CacheKind::Instruction)
            purgeInstPage(frame, p.colour, reason);
        else if (p.op == RequiredOp::Flush)
            flushDataPage(frame, p.colour, reason);
        else
            purgeDataPage(frame, p.colour, reason);
    }

    // --- Stanza 6: reprogram protections so no inconsistency can be
    // perceived and every future transition traps.
    applyProtections(info);

    info.dstate.checkInvariants();
    info.istate.checkInvariants();
}

void
LazyPmap::enter(SpaceVa va, FrameId frame, Protection vm_prot,
                AccessType access, const EnterHints &hints)
{
    va.va = mach.pageTable().pageBase(va.va);
    vic_assert(mach.pageTable().lookup(va) == nullptr,
               "enter over live mapping space=%u va=%llx", va.space,
               (unsigned long long)va.va.value);

    PhysPageInfo &pi = getInfo(frame);
    pi.addMapping(va, vm_prot,
                  setTranslation(va, frame, Protection::none()));

    const MemOp op = isWrite(access) ? MemOp::CpuWrite : MemOp::CpuRead;
    const Reason reason =
        access == AccessType::IFetch ? Reason::IFetch : Reason::NewMap;
    cacheControl(frame, pi, op, va, access, hints.willOverwrite,
                 hints.needData, reason);
}

void
LazyPmap::remove(SpaceVa va)
{
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    if (!pte)
        return;
    PhysPageInfo &pi = getInfo(pte->frame);

    // Capture dirtiness carried by the hardware modified bit before
    // the entry disappears.
    if (cfg.useModifiedBit)
        syncDirtyFromModifiedBits(pi);

    dropTranslation(va);
    bool removed = pi.removeMapping(va);
    vic_assert(removed, "mapping list out of sync with page table");
    // Lazy unmap: no cache operation. The consistency state persists
    // on the frame and is reconciled when the frame is next touched.
}

void
LazyPmap::protect(SpaceVa va, Protection vm_prot)
{
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    vic_assert(pte != nullptr, "protect of unmapped page");
    PhysPageInfo &pi = getInfo(pte->frame);

    if (cfg.useModifiedBit)
        syncDirtyFromModifiedBits(pi);

    VaMapping *m = pi.findMapping(va);
    vic_assert(m != nullptr, "mapping list out of sync with page table");
    m->vmProt = vm_prot;
    setHardwareProt(*m, vm_prot.intersect(cacheProtFor(pi, *m)));
}

bool
LazyPmap::resolveConsistencyFault(SpaceVa va, AccessType access)
{
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    if (!pte)
        return false;  // a mapping fault, not ours

    PhysPageInfo &pi = getInfo(pte->frame);
    VaMapping *m = pi.findMapping(va);
    vic_assert(m != nullptr, "mapping list out of sync with page table");

    if (!protPermits(m->vmProt, access))
        return false;  // genuine VM-level denial (e.g. copy-on-write)

    const MemOp op = isWrite(access) ? MemOp::CpuWrite : MemOp::CpuRead;
    const Reason reason =
        access == AccessType::IFetch ? Reason::IFetch : Reason::Fault;
    cacheControl(pte->frame, pi, op, va, access, false, true, reason);

    vic_assert(protPermits(m->pte->prot, access),
               "consistency fault did not enable the access");
    return true;
}

void
LazyPmap::dmaRead(FrameId frame, bool need_data)
{
    PhysPageInfo *pi = pages.find(frame);
    if (!pi)
        return;  // never cached: memory is trivially current
    cacheControl(frame, *pi, MemOp::DmaRead, std::nullopt,
                 AccessType::Load, false, need_data, Reason::DmaRead);
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
    cacheControl(frame, *pi, MemOp::DmaWrite, std::nullopt,
                 AccessType::Load, false, false, Reason::DmaWrite);
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
