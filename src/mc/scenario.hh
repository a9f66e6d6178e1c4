/**
 * @file
 * Scenario catalog for the interleaving model checker.
 *
 * Each scenario is a tiny concurrent program over the consistency
 * alphabet: one or two CPUs issuing accesses, an operating-system
 * thread performing the pmap/DMA/busy-bit choreography of a kernel
 * I/O or pageout path, and the line-granular beats of any transfer
 * it starts. A guarded scenario's pager thread runs one of the
 * kernel's own transfer tables (os/disk_transfer.hh), one operation
 * per step: it takes the frame's busy bit, which holds off every CPU
 * access to it, then unmaps (swap-out only), flushes or purges,
 * starts the transfer, waits and releases. The guarded scenarios must
 * be race- and violation-free under every sound policy; the
 * broken-ordering exemplars, written by hand, invert one edge of that
 * order and must lose a write-back that the explorer catches with a
 * short replayable schedule.
 */

#ifndef VIC_MC_SCENARIO_HH
#define VIC_MC_SCENARIO_HH

#include <string>
#include <vector>

#include "core/policy_config.hh"
#include "machine/machine_params.hh"
#include "mc/event.hh"

namespace vic::mc
{

/** A virtual page the scenario's CPU accesses go through. Slots of
 *  equal colour on the same frame are aligned aliases. */
struct Slot
{
    std::uint8_t colour = 0;
    std::uint8_t replica = 0; ///< distinguishes same-colour aliases
};

/** What the explorer must find for the scenario to pass. */
struct Expectation
{
    /** No non-benign race may be reported. */
    bool raceFree = true;
    /** No schedule may produce a consistency-oracle violation. */
    bool violationFree = true;
    /** At least one race must be confirmed by an oracle violation. */
    bool wantConfirmedRace = false;
    /** At least one reported race must be a weak-order window (a DMA
     *  access overlapping a still-buffered store). */
    bool wantWeakWindow = false;
    /** At least one unordered pair must be classified benign — the
     *  hardware-coherence claim is checked positively, not conflated
     *  into raceFree (a scenario with NO unordered pairs at all is
     *  race-free too, but proves nothing about the classifier). */
    bool wantBenignRace = false;
    /** Upper bound on the minimal counterexample length (0 = none). */
    std::size_t maxCounterexample = 0;
};

struct Scenario
{
    std::string name;
    PolicyConfig policy;
    MachineParams mparams;
    std::vector<Slot> slots;
    std::vector<Thread> threads;
    Expectation expect;
    MemoryOrder memoryOrder = MemoryOrder::SC;
};

/** Scaled-down machine for exploration: 32 frames, 16 KB caches
 *  (4 colours), line-granular non-snooping DMA by default. */
MachineParams mcMachineParams(std::uint32_t num_cpus = 1,
                              bool dma_snoops = false);

// --- catalog -----------------------------------------------------------

/** The kernel's write-back, fill and swap-out tables, each run by a
 *  pager thread beside a user thread: expected race- and
 *  violation-free. */
std::vector<Scenario> guardedScenarios(const PolicyConfig &policy);

/** Adversarial kernel-path variant that starts the device transfer
 *  BEFORE the DMA-read flush and takes no busy guard: must lose a
 *  write-back, caught with a schedule of at most 6 events. */
Scenario flushAfterStartExemplar(const PolicyConfig &policy);

/** Correct flush ordering but no busy guard: a store interleaved
 *  between the flush and the transfer's beat is lost. */
Scenario lostWriteBackRace(const PolicyConfig &policy);

/** Same alphabet as lostWriteBackRace on a snooping machine: the
 *  CPU/DMA pairs become benign and no violation is possible. */
Scenario snoopingVariant(const PolicyConfig &policy);

/** Two device writes into the same frame with no ordering: an
 *  unordered (DMA, DMA) conflict (tests only). */
Scenario dmaDmaOverlap(const PolicyConfig &policy);

/** Two CPU stores on different processors, frames and colours: a
 *  2-event independent pair (exactly one inequivalent interleaving). */
Scenario independentPair(const PolicyConfig &policy);

/** Two CPU stores to the same line from different processors: a
 *  2-event conflict (exactly two inequivalent interleavings). */
Scenario dependentPair(const PolicyConfig &policy);

/** The scenarios verify_policy --interleave gates on: the guarded set
 *  plus the broken-ordering exemplar and the snooping variant. */
std::vector<Scenario> standardCatalog(const PolicyConfig &policy);

// --- multiprocessor coherence ------------------------------------------

/** Producer/consumer across two CPUs' caches: cpu0 stores a line,
 *  cpu1 loads it. On the default MESI machine the pair is unordered
 *  but benign — the consumer's bus read snoops the producer's
 *  Modified copy — so the scenario must be race- and violation-free
 *  AND report the benign pair. */
Scenario crossCacheSharing(const PolicyConfig &policy);

/** The same program with the coherence bus deconfigured
 *  (cpuCoherence = None): the consumer fills stale memory under the
 *  producer's dirty copy. The pair is a genuine race and the explorer
 *  must confirm it with a 2-event oracle counterexample. This is the
 *  regression for the detector's old hard-coded assumption that
 *  CPU/CPU pairs are always hardware-coherent. */
Scenario nonCoherentSharing(const PolicyConfig &policy);

/** Two same-line stores from different CPUs on the MESI machine:
 *  write-invalidate serialises them (single-writer), so the pair is
 *  benign and both orders converge on the last store's value. */
Scenario crossCacheStores(const PolicyConfig &policy);

/** The catalog verify_policy --coherence gates on: the cross-cache
 *  pairs under MESI and the non-coherent regression. */
std::vector<Scenario> coherenceCatalog(const PolicyConfig &policy);

// --- weak store order --------------------------------------------------

/** The guarded choreography re-explored under WeakStoreOrder. The
 *  busy-acquire point forces every CPU's buffered stores to the frame
 *  to drain, so the shipping orderings must stay race- and
 *  violation-free even with asynchronous store visibility. */
std::vector<Scenario> weakGuardedScenarios(const PolicyConfig &policy);

/** Seeded-broken exemplar: a single thread stores into the page,
 *  takes no busy guard and issues no fence, then flushes and starts a
 *  DMA read. Under SC the program order store→flush→transfer is safe;
 *  under WeakStoreOrder the undrained store can overlap the transfer
 *  — a weak-order window only relaxed exploration can catch. */
Scenario missingFenceExemplar(const PolicyConfig &policy,
                              MemoryOrder order =
                                  MemoryOrder::WeakStoreOrder);

/** The missing-fence program with the bug fixed: an explicit fence
 *  between the store and the flush drains the buffer, restoring the
 *  SC verdict under WeakStoreOrder. */
Scenario fencedVariant(const PolicyConfig &policy);

/** The weak-order catalog verify_policy --memory-order weak gates on:
 *  the weak guarded set, the missing-fence exemplar, and its fenced
 *  repair. */
std::vector<Scenario> weakCatalog(const PolicyConfig &policy);

} // namespace vic::mc

#endif // VIC_MC_SCENARIO_HH
