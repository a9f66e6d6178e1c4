#include "verify/necessity.hh"

#include <deque>
#include <map>
#include <unordered_set>

#include "verify/reachability.hh"

namespace vic::verify
{

namespace
{

/** Total budget for all mutant explorations of one analysis. */
constexpr std::uint64_t kMaxMutantStates = 8'000'000;

using KeySet = std::unordered_set<ModelState::Key, PackedKeyHash>;

enum class Verdict : std::uint8_t
{
    Necessary,
    Redundant,
    Inconclusive,
};

/**
 * Shared scratch of one analyzeNecessity() run. memoSafe holds states
 * proven adversarially safe (no violation reachable); memoBad holds
 * mutant roots from which a violation was reached. Both persist across
 * op instances, so repeated mutants resolve by lookup.
 */
struct MutantSearch
{
    const AbstractSimulator &adv;
    const std::vector<Event> &alphabet;
    KeySet memoSafe;
    KeySet memoBad;
    std::uint64_t budget;
    bool exhausted = false;

    /** Is any violation (or write-back hazard) reachable from @p m
     *  under adversarial semantics? */
    Verdict explore(const ModelState &m)
    {
        const ModelState::Key root = m.pack();
        if (memoSafe.count(root))
            return Verdict::Redundant;
        if (memoBad.count(root))
            return Verdict::Necessary;

        KeySet local;
        std::deque<ModelState> frontier;
        local.insert(root);
        frontier.push_back(m);

        while (!frontier.empty()) {
            const ModelState cur = frontier.front();
            frontier.pop_front();
            for (const Event &e : alphabet) {
                ModelState next = cur;
                const std::optional<AbstractViolation> v =
                    adv.step(next, e);
                if (v || AbstractSimulator::hazard(next)) {
                    memoBad.insert(root);
                    return Verdict::Necessary;
                }
                const ModelState::Key key = next.pack();
                if (memoBad.count(key)) {
                    memoBad.insert(root);
                    return Verdict::Necessary;
                }
                if (memoSafe.count(key) || local.count(key))
                    continue;
                if (budget == 0) {
                    exhausted = true;
                    return Verdict::Inconclusive;
                }
                --budget;
                local.insert(key);
                frontier.push_back(std::move(next));
            }
        }
        // Exhausted without a violation: everything seen is safe.
        memoSafe.insert(local.begin(), local.end());
        return Verdict::Redundant;
    }
};

} // namespace

NecessityResult
analyzeNecessity(const PolicyConfig &policy)
{
    const auto t0 = std::chrono::steady_clock::now();

    const AbstractSimulator sim(policy);
    const AbstractSimulator adv(policy, /*adversarial=*/true);
    const std::vector<Event> alphabet = sim.alphabet();
    const CostModel costs;

    NecessityResult res;
    res.policyName = policy.name;

    // --- Phase 1: exact reachability (as verifyPolicy), keeping the
    // discovered states in BFS order for phase 2.
    bool divergence = false;  // hazard or stale store seen in base set
    Reachability<ModelState> search(sim.initial());
    search.run(alphabet,
               [&](std::size_t from, const Event &e, ModelState &next) {
                   StepTrace tr;
                   std::optional<AbstractViolation> v =
                       sim.stepTraced(next, e, tr);
                   if (v) {
                       res.counterexample = search.trace(from, e);
                       res.violation = std::move(v);
                       return true;
                   }
                   divergence |= tr.staleStore ||
                       AbstractSimulator::hazard(next);
                   return false;
               });

    res.sound = !search.stopped() && !search.truncated();
    res.fixedPointReached = search.stopped() || !search.truncated();
    res.numStates = search.size();
    if (!res.sound) {
        res.seconds = secondsSince(t0);
        return res;
    }

    // --- Phase 2: the one-op-skipped mutant of every issued op.
    MutantSearch mutants{adv, alphabet, {}, {}, kMaxMutantStates};
    res.adversariallyClean = !divergence;
    if (res.adversariallyClean) {
        // Sound + adversarially clean: the whole base reachable set is
        // closed under adversarial steps and violation-free, so every
        // base state is safe. Pre-seeding makes the common mutant case
        // (skip was a hardware no-op) a single lookup.
        for (std::size_t i = 0; i < search.size(); ++i)
            mutants.memoSafe.insert(search.state(i).pack());
    }

    std::map<std::string, SiteReport> sites;

    for (std::size_t i = 0; i < search.size(); ++i) {
        const ModelState &s = search.state(i);
        for (const Event &e : alphabet) {
            ModelState normal = s;
            StepTrace tr;
            sim.stepTraced(normal, e, tr);
            if (tr.ops.empty())
                continue;
            const ModelState::Key normal_key = normal.pack();

            for (std::size_t k = 0; k < tr.ops.size(); ++k) {
                const IssuedOp &op = tr.ops[k];
                ModelState mutant = s;
                const std::optional<AbstractViolation> v =
                    adv.stepSkipping(mutant, e, k);

                ++res.opsExamined;
                SiteReport &site = sites[op.site];
                if (site.site.empty())
                    site.site = op.site;
                ++site.issued;

                Verdict verdict;
                if (v || AbstractSimulator::hazard(mutant)) {
                    verdict = Verdict::Necessary;
                } else if (mutant.pack() == normal_key &&
                           res.adversariallyClean) {
                    // The op's hardware effect was a no-op; the mutant
                    // IS the (safe) normal successor.
                    verdict = Verdict::Redundant;
                } else {
                    verdict = mutants.explore(mutant);
                }

                switch (verdict) {
                  case Verdict::Necessary:
                    ++res.necessaryOps;
                    ++site.necessary;
                    break;
                  case Verdict::Inconclusive:
                    ++res.inconclusiveOps;
                    ++site.inconclusive;
                    break;
                  case Verdict::Redundant: {
                    ++res.redundantOps;
                    ++site.redundant;
                    const Cycles waste = costs.opCycles(op);
                    site.worstWastedCycles =
                        std::max(site.worstWastedCycles, waste);
                    if (!site.exemplar) {
                        RedundantOp r;
                        r.prefix = search.trace(i, e);
                        r.event = r.prefix.back();
                        r.prefix.pop_back();
                        r.opIndex = k;
                        r.op = op;
                        r.wastedCycles = waste;
                        site.exemplar = std::move(r);
                    }
                    break;
                  }
                }
            }
        }
    }

    res.complete = !mutants.exhausted;
    for (auto &kv : sites)
        res.sites.push_back(std::move(kv.second));

    res.seconds = secondsSince(t0);
    return res;
}

} // namespace vic::verify
