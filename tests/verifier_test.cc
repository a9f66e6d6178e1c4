/**
 * @file
 * Tests for the static protocol verifier (src/verify).
 *
 * Covers the acceptance properties: every shipping policy verifies
 * sound at a fixed point; the deliberately broken policy yields a
 * counterexample that is minimal (no strictly shorter trace violates)
 * and that replays on the concrete machine with a ConsistencyOracle
 * violation at the same event index; traces through sound policies
 * replay clean, closing the abstraction-soundness loop in both
 * directions.
 */

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_config.hh"
#include "verify/abstract_model.hh"
#include "verify/policy_verifier.hh"
#include "verify/reachability.hh"

namespace
{

using vic::PolicyConfig;
using namespace vic::verify;

std::vector<PolicyConfig>
shippingPolicies()
{
    std::vector<PolicyConfig> all = PolicyConfig::table4Sweep();
    for (const PolicyConfig &p : PolicyConfig::table5Systems())
        all.push_back(p);
    return all;
}

PolicyConfig
byName(const std::string &name)
{
    for (const PolicyConfig &p : shippingPolicies()) {
        if (p.name == name)
            return p;
    }
    ADD_FAILURE() << "unknown policy '" << name << "'";
    return PolicyConfig::broken();
}

/** Step @p trace through the abstract model; @return the index of the
 *  first violating event, or -1 if the trace runs clean. */
int
firstAbstractViolation(const AbstractSimulator &sim, const Trace &trace)
{
    ModelState s = sim.initial();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (sim.step(s, trace[i]).has_value())
            return static_cast<int>(i);
    }
    return -1;
}

/** Exhaustively enumerate every trace of length < @p len over the
 *  policy's alphabet; @return true iff any of them violates. */
bool
anyShorterTraceViolates(const AbstractSimulator &sim, std::size_t len)
{
    const std::vector<Event> alpha = sim.alphabet();
    for (std::size_t depth = 1; depth < len; ++depth) {
        std::vector<std::size_t> idx(depth, 0);
        while (true) {
            Trace t;
            for (std::size_t i = 0; i < depth; ++i)
                t.push_back(alpha[idx[i]]);
            if (firstAbstractViolation(sim, t) >= 0)
                return true;
            std::size_t p = 0;
            while (p < depth && ++idx[p] == alpha.size())
                idx[p++] = 0;
            if (p == depth)
                break;
        }
    }
    return false;
}

/** Reachable-graph size of one policy: states, transitions (every
 *  explored edge) and diameter (deepest BFS level). */
struct GraphSize
{
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint32_t diameter = 0;
};

/** The sizes the search reports for each shipping policy. Policies
 *  sharing a pmap family share a graph: the eager A, Utah and Apollo;
 *  the lazy B-F and CMU. Any change to the event order, the discovery
 *  order or what counts as a transition moves these. */
GraphSize
expectedGraphSize(const std::string &name)
{
    if (name == "Tut")
        return {15'656, 266'152, 13};
    if (name == "Sun")
        return {741, 10'374, 9};
    if (name == "A (old)" || name == "Utah" || name == "Apollo")
        return {839, 11'746, 11};
    return {1'001, 14'014, 8};
}

TEST(VerifierTest, ShippingPoliciesVerifySound)
{
    for (const PolicyConfig &policy : shippingPolicies()) {
        const VerifyResult r = verifyPolicy(policy);
        EXPECT_TRUE(r.fixedPointReached) << policy.name;
        EXPECT_TRUE(r.sound) << policy.name << ": "
                             << traceName(r.counterexample);
        EXPECT_TRUE(r.counterexample.empty()) << policy.name;
        EXPECT_FALSE(r.violation.has_value()) << policy.name;
        const GraphSize want = expectedGraphSize(policy.name);
        EXPECT_EQ(r.numStates, want.states) << policy.name;
        EXPECT_EQ(r.numTransitions, want.transitions) << policy.name;
        EXPECT_EQ(r.diameter, want.diameter) << policy.name;
    }
}

TEST(VerifierTest, BrokenPolicyYieldsCounterexample)
{
    const VerifyResult r = verifyPolicy(PolicyConfig::broken());
    ASSERT_TRUE(r.fixedPointReached);
    EXPECT_FALSE(r.sound);
    ASSERT_FALSE(r.counterexample.empty());
    ASSERT_TRUE(r.violation.has_value());
    // The known shortest failure of a no-consistency policy on a
    // write-back split-cache machine: dirty data never reaches memory
    // before the instruction fetch fills from it.
    EXPECT_EQ(traceName(r.counterexample), "store@A -> ifetch@A");
    // The search stops at the violating edge, which counts as a
    // transition and reaches one level past the deepest state found.
    EXPECT_EQ(r.numStates, 19u);
    EXPECT_EQ(r.numTransitions, 31u);
    EXPECT_EQ(r.diameter, 2u);
}

TEST(VerifierTest, CounterexampleEndsInViolation)
{
    const VerifyResult r = verifyPolicy(PolicyConfig::broken());
    ASSERT_FALSE(r.counterexample.empty());
    // Replaying the counterexample abstractly violates exactly at its
    // last event and at none before (BFS stops at the first bad state).
    const AbstractSimulator sim(PolicyConfig::broken());
    EXPECT_EQ(firstAbstractViolation(sim, r.counterexample),
              static_cast<int>(r.counterexample.size()) - 1);
}

TEST(VerifierTest, CounterexampleIsMinimal)
{
    const VerifyResult r = verifyPolicy(PolicyConfig::broken());
    ASSERT_FALSE(r.counterexample.empty());
    const AbstractSimulator sim(PolicyConfig::broken());
    EXPECT_FALSE(anyShorterTraceViolates(sim, r.counterexample.size()));
}

TEST(VerifierTest, CounterexampleReplaysOnConcreteMachine)
{
    const VerifyResult r = verifyPolicy(PolicyConfig::broken());
    ASSERT_FALSE(r.counterexample.empty());

    const ReplayResult rr =
        replay(PolicyConfig::broken(), r.counterexample);
    EXPECT_TRUE(rr.violated);
    EXPECT_GT(rr.violationCount, 0u);
    // The single-word discipline makes the abstraction exact: the
    // oracle must fire at the very event the verifier predicted.
    EXPECT_EQ(rr.firstViolationEvent,
              static_cast<int>(r.counterexample.size()) - 1);
    EXPECT_FALSE(rr.kind.empty());
}

TEST(VerifierTest, BrokenPolicyTracesReplayTheModelsViolation)
{
    // The DMA events are the replay's multi-step translation (prepare,
    // start, beat, wait); each must violate where the model does, with
    // the oracle's kind of the transfer that read stale data.
    const PolicyConfig broken = PolicyConfig::broken();
    const AbstractSimulator sim(broken);
    const std::array<std::pair<Trace, const char *>, 3> cases{{
        {{{EventKind::Store, 0}, {EventKind::DmaOut, 0}}, "dma-read"},
        {{{EventKind::Load, 0},
          {EventKind::DmaIn, 0},
          {EventKind::Load, 0}},
         "cpu-load"},
        {{{EventKind::Load, 1},
          {EventKind::Store, 0},
          {EventKind::Load, 1}},
         "cpu-load"},
    }};
    for (const auto &[trace, kind] : cases) {
        const int last = static_cast<int>(trace.size()) - 1;
        EXPECT_EQ(firstAbstractViolation(sim, trace), last)
            << traceName(trace);
        const ReplayResult rr = replay(broken, trace);
        EXPECT_EQ(rr.firstViolationEvent, last) << traceName(trace);
        EXPECT_EQ(rr.kind, kind) << traceName(trace);
    }
}

TEST(VerifierTest, EmptyTraceReplaysClean)
{
    const ReplayResult rr = replay(byName("CMU"), {});
    EXPECT_FALSE(rr.violated);
    EXPECT_EQ(rr.firstViolationEvent, -1);
}

/** Deterministic pseudo-random traces through verified-sound policies
 *  must run clean both abstractly and on the concrete machine. */
TEST(VerifierTest, SoundPoliciesReplayRandomTracesClean)
{
    for (const char *name : {"CMU", "Tut", "Sun", "Utah"}) {
        const PolicyConfig policy = byName(name);
        const AbstractSimulator sim(policy);
        const std::vector<Event> alpha = sim.alphabet();

        std::uint64_t rng = 0x243f6a8885a308d3ull;  // fixed seed
        for (int round = 0; round < 8; ++round) {
            Trace t;
            for (int i = 0; i < 14; ++i) {
                rng = rng * 6364136223846793005ull +
                      1442695040888963407ull;
                t.push_back(alpha[(rng >> 33) % alpha.size()]);
            }
            EXPECT_EQ(firstAbstractViolation(sim, t), -1)
                << name << ": " << traceName(t);
            const ReplayResult rr = replay(policy, t);
            EXPECT_FALSE(rr.violated)
                << name << ": " << traceName(t) << " violated at event "
                << rr.firstViolationEvent << " (" << rr.kind << ")";
        }
    }
}

TEST(VerifierTest, UnmapMoveOnlyForPerVaResidue)
{
    // Tut tracks residue per virtual address, so remapping a slot at a
    // fresh (aligned) address is a distinct event; every other policy
    // keys purely on colour and UnmapMove would duplicate Unmap.
    const AbstractSimulator tut(byName("Tut"));
    bool has_move = false;
    for (const Event &e : tut.alphabet())
        has_move |= e.kind == EventKind::UnmapMove;
    EXPECT_TRUE(has_move);

    for (const char *name : {"CMU", "Sun", "Utah", "Apollo"}) {
        const AbstractSimulator sim(byName(name));
        for (const Event &e : sim.alphabet())
            EXPECT_NE(e.kind, EventKind::UnmapMove) << name;
    }
}

TEST(VerifierTest, TraceNamesAreReadable)
{
    const Trace t{{EventKind::Store, 0}, {EventKind::IFetch, 0}};
    EXPECT_EQ(traceName(t), "store@A -> ifetch@A");
    EXPECT_EQ(eventName({EventKind::DmaIn, 0}), "dma-in");
}

/** A toy state for the search itself: a counter that event `load`
 *  bumps and every other event leaves alone. */
struct Count
{
    std::uint64_t n = 0;
    std::array<std::uint64_t, 1> pack() const { return {n}; }
};

TEST(VerifierTest, StoppingEdgeCountsTowardsTheDiameter)
{
    // root -load-> s1, and the first event tried from s1 ends the
    // search: every state found so far lies at depth 0 or 1, and the
    // stopping edge at depth 2 is what makes the diameter 2.
    const std::vector<Event> alphabet{{EventKind::Load, 0},
                                      {EventKind::Store, 0}};
    Reachability<Count> search(Count{});
    search.run(alphabet, [](std::size_t, const Event &e, Count &next) {
        if (next.n == 1)
            return true;
        if (e.kind == EventKind::Load)
            ++next.n;
        return false;
    });
    EXPECT_TRUE(search.stopped());
    EXPECT_FALSE(search.truncated());
    EXPECT_EQ(search.size(), 2u);
    EXPECT_EQ(search.transitions(), 3u);
    EXPECT_EQ(search.diameter(), 2u);
}

} // namespace
