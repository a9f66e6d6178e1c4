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
 */

#ifndef VIC_VERIFY_POLICY_VERIFIER_HH
#define VIC_VERIFY_POLICY_VERIFIER_HH

#include <cstdint>
#include <optional>
#include <string>

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

} // namespace vic::verify

#endif // VIC_VERIFY_POLICY_VERIFIER_HH
