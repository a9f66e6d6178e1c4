/**
 * @file
 * Differential policy analysis: a product construction running two
 * policies against the same event stream.
 *
 * Both policies are first proven sound (an unsound policy has no
 * meaningful cost story — the result then reports the unsoundness
 * instead of a cost diff). The product machine is then explored
 * breadth-first; every product transition prices both policies' steps
 * with the CostModel, classified by the paper's Table 2 transition
 * taxonomy (target cache-page state at the event, decoded from the
 * lazy side's Table 3 bits, plus whether the access displaces a dirty
 * cache page). The per-class worst-case step costs are a static
 * reproduction of the paper's cost tables; worst cumulative costs are
 * taken along the BFS spanning tree (every minimal trace prefix).
 */

#ifndef VIC_VERIFY_DIFFERENTIAL_HH
#define VIC_VERIFY_DIFFERENTIAL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/abstract_model.hh"
#include "verify/cost_model.hh"

namespace vic::verify
{

/** Worst-case step cost of one Table 2 transition class, per policy. */
struct DiffClassBound
{
    std::string label;  ///< e.g. "load tgt=S", "store tgt=P+disp"
    std::uint64_t transitions = 0;
    Cycles worstA = 0;
    Cycles worstB = 0;
};

struct DiffResult
{
    std::string nameA;
    std::string nameB;

    /** Both policies are sound; the cost comparison below is
     *  meaningful. */
    bool comparable = false;
    /** When !comparable: which policy is unsound and how. */
    std::string unsoundPolicy;
    Trace unsoundTrace;
    std::optional<AbstractViolation> unsoundViolation;

    bool fixedPointReached = false;
    std::uint64_t productStates = 0;
    std::uint64_t productTransitions = 0;

    /** Divergent transitions: one side pays cycles, the other none. */
    std::uint64_t aPaysBFree = 0;
    std::uint64_t bPaysAFree = 0;

    Cycles worstStepA = 0;
    Cycles worstStepB = 0;
    /** Largest single-step cost gap (costA - costB), and the minimal
     *  trace (final event included) exhibiting it. */
    Cycles worstStepGap = 0;
    Trace worstGapTrace;

    /** Worst cumulative cost along any BFS-tree (minimal-trace) path. */
    Cycles worstPathA = 0;
    Cycles worstPathB = 0;

    /** Per-Table-2-class worst-case bounds, sorted by label. */
    std::vector<DiffClassBound> classes;

    double seconds = 0.0;
};

/** Run @p a and @p b against the same event streams and bound their
 *  cost divergence. */
DiffResult comparePolicies(const PolicyConfig &a, const PolicyConfig &b);

} // namespace vic::verify

#endif // VIC_VERIFY_DIFFERENTIAL_HH
