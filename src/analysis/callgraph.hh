/**
 * @file
 * Whole-program call graph over the token streams.
 *
 * A per-file pass can prove properties only as far as a single
 * function body; everything across a call has to be assumed or
 * suppressed. The call graph closes that gap for the addr-kind pass:
 * it discovers every function definition in the tree and resolves
 * calls to definitions by unqualified name.
 *
 * Resolution is deliberately an over-approximation tuned to this
 * repository's style: a call `x.foo(...)` resolves to EVERY function
 * named `foo` in the tree (virtual dispatch, overloads and same-named
 * methods of different classes all merge). Clients that propagate
 * facts over edges must therefore join over all candidates — which is
 * exactly what a conservative dataflow wants.
 *
 * Everything is index-based and ordered by (file, token position), so
 * any analysis iterating the graph is deterministic.
 */

#ifndef VIC_ANALYSIS_CALLGRAPH_HH
#define VIC_ANALYSIS_CALLGRAPH_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/source.hh"

namespace vic::analysis
{

/** One function definition, with its structural token landmarks. */
struct FnInfo
{
    std::size_t fileIndex = 0;    ///< index into the loaded file set
    std::string name;             ///< unqualified ("frameAddr")
    std::size_t paramOpen = 0;    ///< '(' of the parameter list
    std::size_t paramClose = 0;   ///< its ')'
    std::size_t close = 0;        ///< '}' closing the body
    /** First token of the extent a body scan covers: the init-list
     *  ':' for constructors (member initialisers pass arguments too),
     *  else the body '{'. */
    std::size_t extentBegin = 0;
};

class CallGraph
{
  public:
    /** Build the graph over @p files (the lint run's loaded tree). */
    static CallGraph build(const std::vector<SourceFile> &files);

    const std::vector<SourceFile> &files() const { return *srcs; }
    const std::vector<FnInfo> &functions() const { return fns; }

    /** Indices into functions() whose unqualified name is @p name
     *  (empty when unresolved), in definition order. */
    const std::vector<std::size_t> &
    resolve(const std::string &name) const;

  private:
    const std::vector<SourceFile> *srcs = nullptr;
    std::vector<FnInfo> fns;
    std::map<std::string, std::vector<std::size_t>> byName;
    std::vector<std::size_t> empty;
};

} // namespace vic::analysis

#endif // VIC_ANALYSIS_CALLGRAPH_HH
