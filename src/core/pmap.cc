#include "core/pmap.hh"

#include "common/logging.hh"
#include "core/classic_pmap.hh"
#include "core/lazy_pmap.hh"

namespace vic
{

Pmap::Pmap(Machine &m, const PolicyConfig &policy_config)
    : mach(m), cfg(policy_config),
      statDFlushes(m.stats().counter("pmap.d_page_flushes")),
      statDPurges(m.stats().counter("pmap.d_page_purges")),
      statIPurges(m.stats().counter("pmap.i_page_purges"))
{
}

const char *
Pmap::reasonName(Reason reason)
{
    switch (reason) {
      case Reason::Unmap: return "unmap";
      case Reason::NewMap: return "newmap";
      case Reason::Alias: return "alias";
      case Reason::Fault: return "fault";
      case Reason::IFetch: return "ifetch";
      case Reason::DmaRead: return "dma_read";
      case Reason::DmaWrite: return "dma_write";
    }
    vic_panic("invalid Pmap::Reason %d", static_cast<int>(reason));
}

void
Pmap::frameOutOfRange(FrameId frame, std::size_t num_frames)
{
    vic_panic("frame %llu out of range (%zu frames)",
              (unsigned long long)frame, num_frames);
}

void
Pmap::countReason(PageOp op, Reason reason)
{
    Counter *&c = reasonCounters[static_cast<std::size_t>(op)]
                                [static_cast<std::size_t>(reason)];
    if (c == nullptr) {
        static const char *const kOpNames[] = {"d_flush", "d_purge",
                                               "i_purge"};
        c = &mach.stats().counter(
            format("pmap.%s.%s", kOpNames[static_cast<std::size_t>(op)],
                   reasonName(reason)));
    }
    ++*c;
}

void
Pmap::flushDataPage(FrameId frame, CachePageId colour, Reason reason)
{
    ++statDFlushes;
    countReason(PageOp::DFlush, reason);
    VIC_EVLOG(mach.events(),
              format("flush  D frame=%llu colour=%u (%s)",
                     (unsigned long long)frame, colour,
                     reasonName(reason)));
    // On a multiprocessor the dirty line may live in any CPU's cache
    // (hardware coherence migrates it): the operation is broadcast, as
    // a cross-processor shootdown would be.
    for (std::uint32_t cpu = 0; cpu < mach.numCpus(); ++cpu)
        mach.dcache(cpu).flushPage(dColourVa(colour),
                                   mach.frameAddr(frame));
}

void
Pmap::purgeDataPage(FrameId frame, CachePageId colour, Reason reason)
{
    ++statDPurges;
    countReason(PageOp::DPurge, reason);
    VIC_EVLOG(mach.events(),
              format("purge  D frame=%llu colour=%u (%s)",
                     (unsigned long long)frame, colour,
                     reasonName(reason)));
    for (std::uint32_t cpu = 0; cpu < mach.numCpus(); ++cpu)
        mach.dcache(cpu).purgePage(dColourVa(colour),
                                   mach.frameAddr(frame));
}

void
Pmap::purgeInstPage(FrameId frame, CachePageId colour, Reason reason)
{
    ++statIPurges;
    countReason(PageOp::IPurge, reason);
    VIC_EVLOG(mach.events(),
              format("purge  I frame=%llu colour=%u (%s)",
                     (unsigned long long)frame, colour,
                     reasonName(reason)));
    for (std::uint32_t cpu = 0; cpu < mach.numCpus(); ++cpu)
        mach.icache(cpu).purgePage(iColourVa(colour),
                                   mach.frameAddr(frame));
}

PageTableEntry *
Pmap::setTranslation(SpaceVa va, FrameId frame, Protection prot)
{
    PageTableEntry *pte = mach.pageTable().enter(va, frame, prot);
    mach.tlbShootdownPage(va);
    return pte;
}

bool
Pmap::dropTranslation(SpaceVa va)
{
    // Shoot down first, so no TLB holds a handle to an erased entry.
    mach.tlbShootdownPage(va);
    return mach.pageTable().remove(va);
}

void
Pmap::setHardwareProt(const VaMapping &m, Protection prot)
{
    m.pte->prot = prot;
    mach.tlbShootdownPage(m.va);
}

std::optional<VaMapping>
Pmap::MappingView::find(SpaceVa va) const
{
    if (!list)
        return std::nullopt;
    for (const VaMapping &m : *list) {
        if (m.va == va)
            return m;
    }
    vic_panic("mapping list out of sync with page table");
}

std::unique_ptr<Pmap>
Pmap::create(Machine &m, const PolicyConfig &policy_config)
{
    switch (policy_config.pmapKind) {
      case PmapKind::Classic:
        return std::make_unique<ClassicPmap>(m, policy_config);
      case PmapKind::Lazy:
        return std::make_unique<LazyPmap>(m, policy_config);
    }
    vic_panic("invalid pmap kind");
}

} // namespace vic
