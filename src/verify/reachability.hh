/**
 * @file
 * The one breadth-first search behind every verify analysis.
 *
 * The soundness check (verifyPolicy), the cost census
 * (runCostCensus), the base exploration of the necessity analysis
 * (analyzeNecessity) and the differential product (comparePolicies)
 * all explore an abstract state graph breadth-first from one root,
 * trying a fixed event alphabet in order on every state. Reachability
 * owns what they share: the nodes in discovery order with their parent
 * links and depths, the seen set, the state cap and its truncation
 * flag, the transition count, the diameter and minimal-trace
 * reconstruction. Each analysis passes only its per-edge work.
 *
 * BFS order with a deterministic event order makes every reconstructed
 * trace a shortest one, and makes each "first" an analysis keeps (the
 * first violation, the first worst step, the first exemplar) the same
 * on every run.
 *
 * The necessity analysis's mutant searches keep no parent links, share
 * one memo and one budget across searches, and stay in necessity.cc.
 */

#ifndef VIC_VERIFY_REACHABILITY_HH
#define VIC_VERIFY_REACHABILITY_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "verify/abstract_model.hh"

namespace vic::verify
{

/** Cap on the states one search stores: far above any real policy's
 *  reachable set (Tut's, the largest, has 15 656). A search that hits
 *  it reports truncation instead of a fixed point. */
inline constexpr std::uint64_t kMaxStates = 4'000'000;

/** Hash of a packed state key: a splitmix-style combine of its
 *  words. */
struct PackedKeyHash
{
    template <std::size_t N>
    std::size_t operator()(const std::array<std::uint64_t, N> &k) const
    {
        std::uint64_t h = 0;
        for (std::uint64_t v : k) {
            h += v * 0x9e3779b97f4a7c15ull;
            h ^= h >> 32;
            h *= 0xbf58476d1ce4e5b9ull;
        }
        return static_cast<std::size_t>(h);
    }
};

/** Seconds of wall time since @p t0 (an analysis's `seconds`). */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Breadth-first reachability over states of type @p State, whose
 * pack() returns its identity: a std::array of 64-bit words. A state
 * may carry data outside its key, such as the cost of the path that
 * reached it; the search keeps the copy that first reached each key,
 * so that data follows the BFS tree.
 */
template <typename State>
class Reachability
{
  public:
    explicit Reachability(State root)
    {
        seen.insert(root.pack());
        nodes.push_back({std::move(root), 0, 0, {}});
    }

    /**
     * Explore to a fixed point. Each state is expanded once, in
     * discovery order, by trying every event of @p alphabet in order.
     * For each, edge(from, e, next) is called with @p next a copy of
     * state @p from; it steps @p next through @p e in place and
     * returns true to end the search at this edge. Every call counts
     * as a transition. A successor not seen before becomes a node one
     * level deeper than @p from, unless kMaxStates are stored already,
     * which marks the search truncated.
     */
    template <typename EdgeFn>
    void run(const std::vector<Event> &alphabet, EdgeFn &&edge)
    {
        for (std::size_t from = 0; from < nodes.size(); ++from) {
            const std::uint32_t depth = nodes[from].depth + 1;
            for (const Event &e : alphabet) {
                State next = nodes[from].state;
                ++numTransitions;
                if (edge(from, e, next)) {
                    stoppedEarly = true;
                    maxDepth = std::max(maxDepth, depth);
                    return;
                }
                const auto key = next.pack();
                if (seen.contains(key))
                    continue;
                if (nodes.size() >= kMaxStates) {
                    hitCap = true;
                    continue;
                }
                seen.insert(key);
                nodes.push_back({std::move(next), from, depth, e});
                maxDepth = std::max(maxDepth, depth);
            }
        }
    }

    /** States discovered, the root included. */
    std::size_t size() const { return nodes.size(); }
    /** The @p i-th state discovered; 0 is the root. */
    const State &state(std::size_t i) const { return nodes[i].state; }

    std::uint64_t transitions() const { return numTransitions; }
    /** Deepest BFS level reached, the stopping edge's included. */
    std::uint32_t diameter() const { return maxDepth; }
    /** A new state was dropped at the cap. */
    bool truncated() const { return hitCap; }
    /** The edge callback ended the search. */
    bool stopped() const { return stoppedEarly; }

    /** The minimal trace from the root to state @p i, then @p last. */
    Trace trace(std::size_t i, const Event &last) const
    {
        Trace t{last};
        for (; i != 0; i = nodes[i].parent)
            t.push_back(nodes[i].via);
        std::reverse(t.begin(), t.end());
        return t;
    }

  private:
    struct Node
    {
        State state;
        std::size_t parent;
        std::uint32_t depth;
        Event via;  ///< the event that first reached this state
    };

    std::vector<Node> nodes;
    std::unordered_set<decltype(std::declval<const State &>().pack()),
                       PackedKeyHash>
        seen;
    std::uint64_t numTransitions = 0;
    std::uint32_t maxDepth = 0;
    bool hitCap = false;
    bool stoppedEarly = false;
};

} // namespace vic::verify

#endif // VIC_VERIFY_REACHABILITY_HH
