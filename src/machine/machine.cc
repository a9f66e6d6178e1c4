#include "machine/machine.hh"

#include "common/logging.hh"

namespace vic
{

Machine::Machine(const MachineParams &machine_params)
    : mparams(machine_params)
{
    mparams.check();

    physMem = std::make_unique<PhysicalMemory>(mparams.numFrames,
                                               mparams.pageBytes);
    pgTable = std::make_unique<PageTable>(mparams.pageBytes);
    // One tlb.hits/tlb.misses row for the whole machine: every CPU's
    // TLB reports into the same pair.
    Counter &tlb_hits = statSet.counter("tlb.hits");
    Counter &tlb_misses = statSet.counter("tlb.misses");
    for (std::uint32_t cpu = 0; cpu < mparams.numCpus; ++cpu) {
        tlbs.push_back(std::make_unique<Tlb>(
            mparams.tlbEntries, mparams.tlbMissPenalty, *pgTable,
            cycleClock, tlb_hits, tlb_misses));
        const std::string suffix =
            mparams.numCpus > 1 ? format("%u", cpu) : std::string();
        dataCaches.push_back(std::make_unique<Cache>(
            "dcache" + suffix, mparams.dcacheGeometry(),
            mparams.dcacheCosts, mparams.dcachePolicy, *physMem,
            cycleClock, statSet));
        instCaches.push_back(std::make_unique<Cache>(
            "icache" + suffix, mparams.icacheGeometry(),
            mparams.icacheCosts, WritePolicy::WriteBack, *physMem,
            cycleClock, statSet));
    }
    dmaEngine = std::make_unique<DmaEngine>(mparams.dmaCosts, *physMem,
                                            cycleClock, statSet);
    dmaEngine->setEventLog(&eventLog);
    dmaEngine->setBeatBytes(mparams.dcacheLineBytes);
    diskDev = std::make_unique<Disk>(mparams.pageBytes,
                                     mparams.diskAccessCycles, *dmaEngine,
                                     cycleClock, statSet);

    if (mparams.dmaSnoops) {
        for (auto &c : dataCaches)
            dmaEngine->attachSnoopedCache(c.get());
        for (auto &c : instCaches)
            dmaEngine->attachSnoopedCache(c.get());
    }

    // MESI bus: per-CPU data caches always attach; instruction caches
    // join as read-only ports when ifetch coherence is selected.
    const bool mesi =
        mparams.numCpus > 1 &&
        mparams.cpuCoherence == MachineParams::CpuCoherence::Mesi;
    if (mesi || mparams.ifetchCoherence) {
        cohBus = std::make_unique<CoherenceBus>(mparams.snoopPenalty,
                                                cycleClock, statSet);
        for (auto &c : dataCaches)
            cohBus->attach(c.get());
        if (mparams.ifetchCoherence)
            for (auto &c : instCaches)
                cohBus->attach(c.get());
    }
    if (mparams.synonymCoherence) {
        for (auto &c : dataCaches)
            c->enableSelfSnoop(mparams.snoopPenalty);
        for (auto &c : instCaches)
            c->enableSelfSnoop(mparams.snoopPenalty);
    }
}

void
Machine::tlbShootdownPage(SpaceVa key)
{
    for (auto &t : tlbs)
        t->invalidatePage(key);
}

void
Machine::tlbShootdownSpace(SpaceId space)
{
    for (auto &t : tlbs)
        t->invalidateSpace(space);
}

void
Machine::setObserver(MemoryObserver *obs)
{
    memObserver = obs;
    dmaEngine->setObserver(obs);
}

} // namespace vic
