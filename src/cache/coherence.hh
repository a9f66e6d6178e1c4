/**
 * @file
 * Snooping MESI coherence bus.
 *
 * A CoherenceBus connects the per-CPU caches of a multiprocessor (and,
 * optionally, their instruction caches) into a write-invalidate MESI
 * protocol. Caches attached to the bus route every fill through it:
 *
 *  - busRead (a read miss): every peer with a copy downgrades to
 *    Shared, writing a Modified copy back first so memory is current;
 *    the requester fills Shared if any peer held the line, else
 *    Exclusive.
 *  - busReadExclusive (a write miss): every peer invalidates its copy,
 *    writing a Modified copy back first; the requester fills Exclusive
 *    and then dirties the line to Modified.
 *  - busUpgrade (a write hit on a Shared line): peers invalidate; the
 *    requester takes the line to Modified without a refill.
 *
 * Instruction caches attach as read-only ports: they only ever issue
 * busRead (ifetch fills), but they are snooped like any other port, so
 * a store to a line an icache holds must broadcast an invalidation
 * (Shared-copy upgrade) that purges the stale instructions — the
 * hardware-coherent replacement for the software data-to-instruction
 * flush/purge pairs.
 *
 * The protocol invariant is the usual one: a Modified or Exclusive
 * copy implies every other port holds the line Invalid. A conflict
 * copy run (Cache::copyRun) rests on it: its pairs' transactions find
 * the peers quiet, so quietPairs() counts them in one step and asserts
 * the invariant for the run's two lines. Cycle cost:
 * a transaction charges the machine's snoopPenalty once when a peer
 * intervenes with data (Modified write-back); peers' write-backs
 * additionally charge their own writeBackPenalty, exactly as a
 * software-initiated flush would.
 */

#ifndef VIC_CACHE_COHERENCE_HH
#define VIC_CACHE_COHERENCE_HH

#include <vector>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace vic
{

class CoherenceBus
{
  public:
    /**
     * @param snoop_penalty cycles charged once per transaction in
     *                      which some peer intervened with data
     * @param clock         machine cycle clock
     * @param stat_set      statistics registry ("bus." counters are
     *                      registered here; the bus only exists on
     *                      coherent machines, so uncoherent machines'
     *                      artifacts keep their exact counter set)
     */
    CoherenceBus(Cycles snoop_penalty, CycleClock &clock,
                 StatSet &stat_set);

    /** Attach a cache as a snooped MESI port and point the cache back
     *  at this bus. Instruction caches attach the same way; they are
     *  read-only by construction (they never issue stores). */
    void attach(Cache *c);

    /**
     * A read miss in @p requester. Peers downgrade to Shared (Modified
     * copies write back first). @return true iff any peer held a copy,
     * i.e. the requester must fill Shared rather than Exclusive.
     */
    bool busRead(const Cache *requester, PhysAddr pa_line);

    /** A write miss in @p requester: peers write back Modified copies
     *  and invalidate. The requester fills Exclusive. */
    void busReadExclusive(const Cache *requester, PhysAddr pa_line);

    /** A write hit on a Shared line in @p requester: peers invalidate
     *  (Shared copies are clean, so no data moves in a conforming
     *  protocol; a Modified peer copy would still be written back). */
    void busUpgrade(const Cache *requester, PhysAddr pa_line);

    /**
     * @p n more pairs of a conflict copy run in @p requester
     * (Cache::copyRun), each a busRead of @p src_line (the load's fill)
     * and a busReadExclusive of @p dst_line (the store's fill), that
     * find the peers quiet: no peer holds the destination and none
     * holds the source Exclusive or Modified. So no snoop writes back,
     * invalidates or changes a state (a Shared source copy stays
     * Shared), and only bus.reads and bus.read_exclusives move, by n
     * each. The run's first pair leaves the peers quiet; asserted over
     * every peer, in every build.
     */
    void quietPairs(const Cache *requester, PhysAddr dst_line,
                    PhysAddr src_line, std::uint32_t n);

  private:
    /** Snoop every port except @p requester; invalidating or
     *  downgrading per @p invalidate. @return reply summary. */
    Cache::SnoopReply snoopPeers(const Cache *requester,
                                 PhysAddr pa_line, bool invalidate);

    std::vector<Cache *> ports;
    Cycles snoopPenalty;
    CycleClock &clk;

    Counter &statReads;          ///< busRead transactions
    Counter &statReadExclusives; ///< busReadExclusive transactions
    Counter &statUpgrades;       ///< busUpgrade transactions
    Counter &statInterventions;  ///< transactions a peer supplied data
    Counter &statInvalidations;  ///< peer copies invalidated
    Counter &statSnoopCycles;    ///< snoop-penalty cycles charged
};

} // namespace vic

#endif // VIC_CACHE_COHERENCE_HH
