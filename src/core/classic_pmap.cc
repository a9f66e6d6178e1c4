#include "core/classic_pmap.hh"

#include "common/logging.hh"

namespace vic
{

ClassicPmap::ClassicPmap(Machine &m, const PolicyConfig &policy_config)
    : Pmap(m, policy_config), frames(m.params().numFrames), rules(cfg)
{
}

bool
ClassicPmap::FrameView::drop(const VaMapping &m)
{
    const SpaceVa va = m.va;
    const bool modified = untranslate(va);
    for (VaMapping &listed : *list) {
        if (listed.va == va) {
            listed = list->back();
            list->pop_back();
            return modified;
        }
    }
    vic_panic("mapping list out of sync with page table");
}

ClassicPmap::FrameView
ClassicPmap::viewOf(const PageTableEntry *pte)
{
    if (!pte)
        return FrameView(*this, 0, nullptr);
    return FrameView(*this, pte->frame, &frames.getOrMake(pte->frame));
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
ClassicPmap::enter(SpaceVa va, FrameId frame, Protection vm_prot,
                   AccessType access, const EnterHints &hints)
{
    va.va = mach.pageTable().pageBase(va.va);
    vic_assert(mach.pageTable().lookup(va) == nullptr,
               "enter over live mapping space=%u va=%llx", va.space,
               (unsigned long long)va.va.value);
    FrameView v(*this, frame, &frames.getOrMake(frame));
    rules.enter(v, va, vm_prot, access, hints);
}

void
ClassicPmap::remove(SpaceVa va)
{
    va.va = mach.pageTable().pageBase(va.va);
    FrameView v = viewOf(mach.pageTable().lookup(va));
    rules.remove(v, va);
}

void
ClassicPmap::protect(SpaceVa va, Protection vm_prot)
{
    va.va = mach.pageTable().pageBase(va.va);
    const PageTableEntry *pte = mach.pageTable().lookup(va);
    vic_assert(pte != nullptr, "protect of unmapped page");
    for (auto &m : frames.getOrMake(pte->frame).mappings) {
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
    FrameView v = viewOf(mach.pageTable().lookup(va));
    return rules.resolveFault(v, va, access);
}

void
ClassicPmap::dmaRead(FrameId frame, bool need_data)
{
    FrameMeta *meta = frames.find(frame);
    if (!meta)
        return;
    FrameView v(*this, frame, meta);
    rules.dmaRead(v, need_data);
}

void
ClassicPmap::dmaWrite(FrameId frame)
{
    FrameMeta *meta = frames.find(frame);
    if (!meta)
        return;
    FrameView v(*this, frame, meta);
    rules.dmaWrite(v);
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
