#include "machine/machine_params.hh"

#include <bit>

#include "common/logging.hh"

namespace vic
{

MachineParams
MachineParams::hp720()
{
    MachineParams p;
    // The 720's instruction cache purges in constant time regardless of
    // contents (Section 5.1): model with a uniform per-line op cost.
    p.icacheCosts.uniformOpCost = true;
    // "the 720 appears to purge no more quickly than it flushes"
    // (Section 5.1): identical present/absent costs for both ops is the
    // default in CacheCosts.
    return p;
}

void
MachineParams::check() const
{
    if (numFrames == 0)
        vic_fatal("machine needs at least one physical frame");
    if (!std::has_single_bit(pageBytes))
        vic_fatal("page size %u is not a power of two", pageBytes);
    if (pageBytes < dcacheLineBytes || pageBytes < icacheLineBytes)
        vic_fatal("page smaller than a cache line");
    if (clockHz <= 0)
        vic_fatal("clock rate must be positive");
    if (numCpus == 0)
        vic_fatal("machine needs at least one CPU");
    if (tlbEntries == 0)
        vic_fatal("TLB needs at least one entry");
    // A write-through store issues no bus transaction, so neither a
    // peer data cache nor a coherent instruction cache would see it.
    if (((numCpus > 1 && cpuCoherence == CpuCoherence::Mesi) ||
         ifetchCoherence) &&
        dcachePolicy != WritePolicy::WriteBack)
        vic_fatal("MESI coherence requires write-back data caches");
    if (ifetchCoherence && numCpus > 1 &&
        cpuCoherence == CpuCoherence::None)
        vic_fatal("ifetch coherence needs the MESI bus on a "
                  "multiprocessor");
}

CacheGeometry
MachineParams::dcacheGeometry() const
{
    return CacheGeometry(dcacheBytes, dcacheLineBytes, pageBytes,
                         dcacheWays, dcacheIndexing);
}

CacheGeometry
MachineParams::icacheGeometry() const
{
    return CacheGeometry(icacheBytes, icacheLineBytes, pageBytes,
                         icacheWays, icacheIndexing);
}

} // namespace vic
