/**
 * @file
 * Exhaustive reachability analysis of the abstract protocol machine.
 *
 * For one PolicyConfig, explores every state the AbstractSimulator can
 * reach from power-up under its full event alphabet, to a fixed point
 * — no depth bound, unlike the bounded model check test. Breadth-first
 * order with a deterministic event order makes the first violation
 * found a minimal (shortest possible) counterexample trace; parent
 * links reconstruct it for replay on the concrete machine.
 *
 * replay() runs a trace there: one thread of the interleaving
 * checker's executor (mc/executor.hh) on a machine with the oracle
 * attached, each event as the checker's own operations. A trace the
 * verifier flags must reproduce an oracle violation at the same event,
 * and a trace through a sound policy must replay clean: the
 * verifier's counterexamples are real bugs, not artifacts of the
 * abstraction.
 */

#ifndef VIC_VERIFY_POLICY_VERIFIER_HH
#define VIC_VERIFY_POLICY_VERIFIER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine_params.hh"
#include "verify/abstract_model.hh"

namespace vic::verify
{

struct VerifyResult
{
    std::string policyName;
    /** No reachable state violates the invariants. Only meaningful
     *  when @c fixedPointReached. */
    bool sound = false;
    /** The full reachable set was explored (kMaxStates not hit), or
     *  the search stopped at a violation. */
    bool fixedPointReached = false;

    std::uint64_t numStates = 0;       ///< reachable states
    std::uint64_t numTransitions = 0;  ///< explored edges
    std::uint32_t diameter = 0;        ///< max BFS depth seen

    /** Shortest event sequence leading to a violation (empty when
     *  sound). */
    Trace counterexample;
    std::optional<AbstractViolation> violation;

    double seconds = 0.0;
};

/** Explore @p policy's reachable states and check the paper's
 *  invariants on every transition. */
VerifyResult verifyPolicy(const PolicyConfig &policy);

struct ReplayResult
{
    bool violated = false;
    std::uint64_t violationCount = 0;
    /** Index into the trace of the event whose transfer first
     *  mismatched the oracle's shadow copy; -1 if none. */
    int firstViolationEvent = -1;
    /** Oracle classification of the first violation ("cpu-load",
     *  "cpu-ifetch" or "dma-read"). */
    std::string kind;
    /** Simulated cycles each event of the trace took, in order: the
     *  concrete side of CostModel::stepCycles. */
    std::vector<Cycles> eventCycles;
};

/**
 * Execute @p trace under @p policy on a fresh concrete machine of
 * @p machine's parameters, with only the memory the executor touches.
 * Each alias slot is a virtual page of its colour, and an UnmapMove
 * sends later events on the slot to a twin two replicas on. Loads,
 * stores and fetches are CPU accesses to the page's word 0; unmaps are
 * pmap removes; a DMA event prepares the frame through the pmap, then
 * moves the line that holds word 0 and waits for it.
 */
ReplayResult replay(const PolicyConfig &policy, const Trace &trace,
                    MachineParams machine = MachineParams::hp720());

} // namespace vic::verify

#endif // VIC_VERIFY_POLICY_VERIFIER_HH
