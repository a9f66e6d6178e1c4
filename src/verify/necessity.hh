/**
 * @file
 * Per-operation necessity analysis: prove every cache op a policy
 * issues load-bearing, or exhibit it as provably redundant.
 *
 * For each reachable (state, event, issued-op) triple, the analyzer
 * runs the one-op-skipped mutant: the policy's bookkeeping advances
 * exactly as shipped, but the op's hardware effect is suppressed. If
 * no violation is reachable from the mutant state the op was provably
 * redundant in that state — the machine would have stayed consistent
 * without it. An op is *removable at its call site* only when every
 * reachable instance the site issues is redundant; eager policies
 * issue many per-instance-redundant ops from sites that are
 * load-bearing elsewhere, which is precisely the waste the paper's
 * Tables 1-2 measure.
 *
 * Mutant exploration uses the AbstractSimulator's adversarial
 * semantics (write-back-under-pressure hazard, partial-line stores) so
 * an op is only called redundant if skipping it survives hardware
 * behaviour the exact single-word abstraction cannot see. Exploration
 * is memoised globally: for a sound policy every base-reachable state
 * is adversarially safe (checked, not assumed), so most mutants
 * resolve by a single hash lookup.
 */

#ifndef VIC_VERIFY_NECESSITY_HH
#define VIC_VERIFY_NECESSITY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/abstract_model.hh"
#include "verify/cost_model.hh"

namespace vic::verify
{

/** One provably redundant op instance, with the minimal trace that
 *  reaches it (replayable on the concrete machine). */
struct RedundantOp
{
    Trace prefix;           ///< minimal trace to the issuing state
    Event event;            ///< event whose step issued the op
    std::size_t opIndex = 0; ///< index in that step's issue order
    IssuedOp op;
    Cycles wastedCycles = 0; ///< what the concrete machine paid for it
};

/** Aggregated verdicts for one policy call site. */
struct SiteReport
{
    std::string site;
    std::uint64_t issued = 0;     ///< (state, event, op) instances
    std::uint64_t redundant = 0;
    std::uint64_t necessary = 0;
    std::uint64_t inconclusive = 0;  ///< mutant budget exhausted
    /** Worst single-instance waste among the redundant ones. */
    Cycles worstWastedCycles = 0;
    /** First redundant instance in BFS order (minimal prefix). */
    std::optional<RedundantOp> exemplar;

    /** Every instance this site ever issues is provably redundant:
     *  the call site can be deleted from the shipping policy. */
    bool removable() const { return issued > 0 && redundant == issued; }
};

struct NecessityResult
{
    std::string policyName;
    /** Base exploration found no violation (prerequisite — necessity
     *  of ops in an unsound policy is meaningless). */
    bool sound = false;
    bool fixedPointReached = false;
    /** No mutant exploration hit the budget; every verdict is a
     *  proof, none is a conservative "necessary". */
    bool complete = false;
    /** The base reachable set was adversarially clean (no write-back
     *  hazard, no stale store), enabling the safe-set memo fast path.
     *  Holds for every sound policy shipped. */
    bool adversariallyClean = false;

    std::uint64_t numStates = 0;
    std::uint64_t opsExamined = 0;
    std::uint64_t redundantOps = 0;
    std::uint64_t necessaryOps = 0;
    std::uint64_t inconclusiveOps = 0;

    /** Per-site breakdown, sorted by site label. */
    std::vector<SiteReport> sites;

    /** Filled when !sound. */
    Trace counterexample;
    std::optional<AbstractViolation> violation;

    double seconds = 0.0;

    bool anyRemovableSite() const
    {
        for (const SiteReport &s : sites)
            if (s.removable())
                return true;
        return false;
    }
};

/** Explore @p policy, then prove or refute the necessity of every
 *  issued op instance. */
NecessityResult analyzeNecessity(const PolicyConfig &policy);

} // namespace vic::verify

#endif // VIC_VERIFY_NECESSITY_HH
