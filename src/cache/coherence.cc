#include "cache/coherence.hh"

#include "common/logging.hh"

namespace vic
{

CoherenceBus::CoherenceBus(Cycles snoop_penalty, CycleClock &clock,
                           StatSet &stat_set)
    : snoopPenalty(snoop_penalty), clk(clock),
      statReads(stat_set.counter("bus.reads")),
      statReadExclusives(stat_set.counter("bus.read_exclusives")),
      statUpgrades(stat_set.counter("bus.upgrades")),
      statInterventions(stat_set.counter("bus.interventions")),
      statInvalidations(stat_set.counter("bus.invalidations")),
      statSnoopCycles(stat_set.counter("bus.snoop_cycles"))
{
}

void
CoherenceBus::attach(Cache *c)
{
    ports.push_back(c);
    c->attachBus(this);
}

Cache::SnoopReply
CoherenceBus::snoopPeers(const Cache *requester, PhysAddr pa_line,
                         bool invalidate)
{
    Cache::SnoopReply summary;
    for (Cache *port : ports) {
        if (port == requester)
            continue;
        const Cache::SnoopReply r = invalidate
            ? port->snoopBusInvalidate(pa_line)
            : port->snoopBusRead(pa_line);
        summary.hadCopy |= r.hadCopy;
        summary.intervened |= r.intervened;
        if (invalidate && r.hadCopy)
            ++statInvalidations;
    }
    if (summary.intervened) {
        ++statInterventions;
        statSnoopCycles += snoopPenalty;
        clk.advance(snoopPenalty);
    }
    return summary;
}

bool
CoherenceBus::busRead(const Cache *requester, PhysAddr pa_line)
{
    ++statReads;
    return snoopPeers(requester, pa_line, false).hadCopy;
}

void
CoherenceBus::busReadExclusive(const Cache *requester, PhysAddr pa_line)
{
    ++statReadExclusives;
    snoopPeers(requester, pa_line, true);
}

void
CoherenceBus::busUpgrade(const Cache *requester, PhysAddr pa_line)
{
    ++statUpgrades;
    snoopPeers(requester, pa_line, true);
}

void
CoherenceBus::quietPairs(const Cache *requester, PhysAddr dst_line,
                         PhysAddr src_line, std::uint32_t n)
{
    for (const Cache *port : ports) {
        if (port == requester)
            continue;
        const MesiState dst = port->heldState(dst_line);
        const MesiState src = port->heldState(src_line);
        vic_assert(dst == MesiState::Invalid && src <= MesiState::Shared,
                   "%s: conflict run breaks the single-owner invariant: "
                   "peer %s holds the destination %s and the source %s",
                   requester->name().c_str(), port->name().c_str(),
                   mesiStateName(dst), mesiStateName(src));
    }
    statReads += n;
    statReadExclusives += n;
}

} // namespace vic
