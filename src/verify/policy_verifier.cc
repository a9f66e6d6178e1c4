#include "verify/policy_verifier.hh"

#include "verify/reachability.hh"

namespace vic::verify
{

VerifyResult
verifyPolicy(const PolicyConfig &policy)
{
    const auto t0 = std::chrono::steady_clock::now();

    const AbstractSimulator sim(policy);

    VerifyResult res;
    res.policyName = policy.name;

    Reachability<ModelState> search(sim.initial());
    search.run(sim.alphabet(),
               [&](std::size_t from, const Event &e, ModelState &next) {
                   std::optional<AbstractViolation> v = sim.step(next, e);
                   if (!v)
                       return false;
                   // First violation in BFS order: minimal
                   // counterexample.
                   res.counterexample = search.trace(from, e);
                   res.violation = std::move(v);
                   return true;
               });

    res.sound = !search.stopped() && !search.truncated();
    res.fixedPointReached = search.stopped() || !search.truncated();
    res.numStates = search.size();
    res.numTransitions = search.transitions();
    res.diameter = search.diameter();
    res.seconds = secondsSince(t0);
    return res;
}

} // namespace vic::verify
