#include "verify/differential.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <map>

#include "common/logging.hh"
#include "verify/policy_verifier.hh"
#include "verify/reachability.hh"

namespace vic::verify
{

namespace
{

/** A product search state: both policies' model states, and the cost
 *  each paid along the BFS-tree path that first reached the pair (not
 *  part of its identity). */
struct ProductState
{
    ModelState a;
    ModelState b;
    Cycles pathA = 0;
    Cycles pathB = 0;

    std::array<std::uint64_t, 4> pack() const
    {
        const ModelState::Key ka = a.pack();
        const ModelState::Key kb = b.pack();
        return {ka[0], ka[1], kb[0], kb[1]};
    }
};

/** Decode the lazy side's Table 3 bits into the Table 2 state letter
 *  of the event's target cache page, with a "+disp" marker when the
 *  access additionally displaces a dirty data cache page. */
std::string
classifyEvent(const Event &e, const ModelState *ls)
{
    std::string label = eventKindName(e.kind);
    if (!ls)
        return label;

    const auto bit = [](std::uint8_t mask, CachePageId c) {
        return (mask & (1u << c)) != 0;
    };
    // While the cache is dirty exactly one data colour is mapped — the
    // dirty one (lazy invariant). Under the modified-bit optimisation
    // the dirty bit lags the hardware: a silently-modified live slot
    // makes its colour effectively dirty before the next pmap run
    // syncs the bookkeeping, and the step will pay the displacement
    // flush accordingly — so classify by the effective view.
    int dirty_col = ls->dCacheDirty
        ? std::countr_zero(static_cast<unsigned>(ls->dMapped))
        : -1;
    if (dirty_col < 0) {
        for (std::uint8_t k = 0; k < kSlots.size(); ++k)
            if (ls->live[k] && ls->modbit[k]) {
                dirty_col = kSlots[k].colour;
                break;
            }
    }
    const bool eff_dirty = dirty_col >= 0;

    switch (e.kind) {
      case EventKind::Load:
      case EventKind::Store: {
        const CachePageId c = kSlots[e.slot].colour;
        char letter = 'E';
        if (bit(ls->dStale, c))
            letter = 'S';
        else if (eff_dirty && dirty_col == static_cast<int>(c))
            letter = 'D';
        else if (bit(ls->dMapped, c))
            letter = 'P';
        label += " tgt=";
        label += letter;
        if (eff_dirty && dirty_col != static_cast<int>(c))
            label += "+disp";
        return label;
      }
      case EventKind::IFetch: {
        const CachePageId c = kSlots[e.slot].colour;
        char letter = 'E';
        if (bit(ls->iStale, c))
            letter = 'S';
        else if (bit(ls->iMapped, c))
            letter = 'P';
        label += " tgt=";
        label += letter;
        // Instruction fetches never align with data: any dirty data
        // cache page is displaced.
        if (eff_dirty)
            label += "+disp";
        return label;
      }
      case EventKind::Unmap:
      case EventKind::UnmapMove:
        return label;
      case EventKind::DmaIn:
      case EventKind::DmaOut:
        label += eff_dirty ? " dirty" : " clean";
        return label;
    }
    return label;
}

} // namespace

DiffResult
comparePolicies(const PolicyConfig &a, const PolicyConfig &b)
{
    const auto t0 = std::chrono::steady_clock::now();

    DiffResult res;
    res.nameA = a.name;
    res.nameB = b.name;

    // --- Soundness gate: an unsound policy has no cost story.
    for (const PolicyConfig *p : {&a, &b}) {
        const VerifyResult vr = verifyPolicy(*p);
        if (!vr.sound) {
            res.comparable = false;
            res.unsoundPolicy = p->name;
            res.unsoundTrace = vr.counterexample;
            res.unsoundViolation = vr.violation;
            res.seconds = secondsSince(t0);
            return res;
        }
    }
    res.comparable = true;

    const AbstractSimulator simA(a);
    const AbstractSimulator simB(b);
    const CostModel costs;

    // Union alphabet: a per-VA policy adds UnmapMove, which every
    // other policy treats exactly as Unmap.
    std::vector<Event> alphabet = simA.alphabet();
    for (const Event &e : simB.alphabet())
        if (std::find(alphabet.begin(), alphabet.end(), e) ==
            alphabet.end())
            alphabet.push_back(e);

    // Classify transitions through the lazy side's Table 3 bits
    // (prefer B, conventionally the lazy/new policy).
    const bool b_lazy = b.pmapKind == PmapKind::Lazy;
    const bool a_lazy = a.pmapKind == PmapKind::Lazy;

    std::map<std::string, DiffClassBound> classes;
    Reachability<ProductState> search(
        ProductState{simA.initial(), simB.initial()});
    search.run(alphabet, [&](std::size_t from, const Event &e,
                             ProductState &next) {
        // Classified by the state the event leaves, before stepping.
        const ModelState *lazy_side =
            b_lazy ? &next.b : (a_lazy ? &next.a : nullptr);
        const std::string label = classifyEvent(e, lazy_side);

        StepTrace trA, trB;
        const auto vA = simA.stepTraced(next.a, e, trA);
        const auto vB = simB.stepTraced(next.b, e, trB);
        vic_assert(!vA && !vB,
                   "sound policy violated inside the product");

        const Cycles costA = costs.stepCycles(trA);
        const Cycles costB = costs.stepCycles(trB);
        next.pathA += costA;
        next.pathB += costB;

        DiffClassBound &cls = classes[label];
        if (cls.label.empty())
            cls.label = label;
        ++cls.transitions;
        cls.worstA = std::max(cls.worstA, costA);
        cls.worstB = std::max(cls.worstB, costB);

        res.worstStepA = std::max(res.worstStepA, costA);
        res.worstStepB = std::max(res.worstStepB, costB);
        if (costA > 0 && costB == 0)
            ++res.aPaysBFree;
        if (costB > 0 && costA == 0)
            ++res.bPaysAFree;
        if (costA > costB && costA - costB > res.worstStepGap) {
            res.worstStepGap = costA - costB;
            res.worstGapTrace = search.trace(from, e);
        }
        return false;
    });

    res.fixedPointReached = !search.truncated();
    res.productStates = search.size();
    res.productTransitions = search.transitions();
    for (std::size_t i = 0; i < search.size(); ++i) {
        res.worstPathA = std::max(res.worstPathA, search.state(i).pathA);
        res.worstPathB = std::max(res.worstPathB, search.state(i).pathB);
    }
    for (auto &kv : classes)
        res.classes.push_back(std::move(kv.second));

    res.seconds = secondsSince(t0);
    return res;
}

} // namespace vic::verify
