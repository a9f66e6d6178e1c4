/**
 * @file
 * Example: statically verify a consistency policy and replay a
 * counterexample.
 *
 * Shows the three-step workflow of the vic::verify API:
 *
 *   1. verifyPolicy() — exhaustively explore the abstract
 *      protocol state machine for a PolicyConfig and check the paper's
 *      invariants (no stale read, no lost dirty write-back, no
 *      shadowed DMA);
 *   2. inspect the minimal counterexample trace if one exists;
 *   3. replay() — run that trace on a fresh concrete Machine under
 *      the ConsistencyOracle to prove the bug is real. CPU accesses
 *      touch the page's word 0; a DMA event moves the line that holds
 *      it, whose other words move with it, so word 0 stays exact.
 *
 * The broken policy fails in two events; CMU's lazy policy verifies
 * sound over its whole reachable state space. Exits 1 if either does
 * not.
 */

#include <cstdio>

#include "core/policy_config.hh"
#include "verify/policy_verifier.hh"

int
main()
{
    using vic::PolicyConfig;
    namespace verify = vic::verify;

    // A sound policy: the verifier proves every reachable state clean.
    const verify::VerifyResult good =
        verify::verifyPolicy(PolicyConfig::cmu());
    std::printf("%s: %s — %llu reachable states, %llu transitions, "
                "diameter %u\n",
                good.policyName.c_str(), good.sound ? "sound" : "unsound",
                static_cast<unsigned long long>(good.numStates),
                static_cast<unsigned long long>(good.numTransitions),
                good.diameter);
    if (!good.sound)
        return 1;

    // The deliberately broken policy: get the shortest failing trace.
    const verify::VerifyResult bad =
        verify::verifyPolicy(PolicyConfig::broken());
    if (bad.sound) {
        std::printf("unexpected: broken policy verified sound\n");
        return 1;
    }
    std::printf("\n%s: unsound\n  minimal counterexample: %s\n"
                "  violation: %s (%s)\n",
                bad.policyName.c_str(),
                verify::traceName(bad.counterexample).c_str(),
                verify::violationKindName(bad.violation->kind),
                bad.violation->detail.c_str());

    // Replay it on the concrete machine to confirm it is a real bug.
    const verify::ReplayResult rr =
        verify::replay(PolicyConfig::broken(), bad.counterexample);
    std::printf("  concrete replay: %s (first oracle violation at "
                "event %d, %s)\n",
                rr.violated ? "reproduced" : "did NOT reproduce",
                rr.firstViolationEvent, rr.kind.c_str());
    return rr.violated ? 0 : 1;
}
