/**
 * @file
 * Whole-program call graph over the token streams.
 *
 * A per-file pass can prove properties only as far as a single
 * function body; everything across a call has to be assumed or
 * suppressed. The call graph closes that gap for the addr-kind and
 * counter-liveness passes: it discovers every function definition in
 * the tree (with a qualified name when the definition site provides
 * one — "Class::method" for out-of-line definitions, and in-class
 * bodies are qualified by the enclosing class/struct range), every
 * call-shaped identifier inside those definitions, and resolves calls
 * to definitions by unqualified name.
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

inline constexpr std::size_t kNoFunction =
    static_cast<std::size_t>(-1);

/** One function definition, with its structural token landmarks. */
struct FnInfo
{
    std::size_t fileIndex = 0;    ///< index into the loaded file set
    std::string name;             ///< unqualified ("frameAddr")
    std::string qualified;        ///< "Machine::frameAddr" when known
    std::string className;        ///< "" for free functions
    std::size_t nameTok = 0;      ///< token index of the name
    std::size_t paramOpen = 0;    ///< '(' of the parameter list
    std::size_t paramClose = 0;   ///< its ')'
    std::size_t open = 0;         ///< '{' of the body
    std::size_t close = 0;        ///< its '}'
    /** First token of the extent call scanning covers: the init-list
     *  ':' for constructors (member initialisers register counters
     *  and call base constructors), else the body '{'. */
    std::size_t extentBegin = 0;
    std::uint32_t line = 0;
    std::uint32_t col = 0;
};

/** One call-shaped identifier (ident immediately followed by '(')
 *  inside a function's extent. */
struct CallSiteInfo
{
    std::size_t caller = 0;  ///< index into functions()
    std::string callee;      ///< unqualified name as written
    std::size_t tok = 0;     ///< token index of the callee name
    std::uint32_t line = 0;
    std::uint32_t col = 0;
};

/** One class/struct definition's brace range (member declarations
 *  live here; used for subobject-construction edges). */
struct ClassInfo
{
    std::size_t fileIndex = 0;
    std::string name;
    std::size_t open = 0;   ///< '{' token
    std::size_t close = 0;  ///< '}' token
};

class CallGraph
{
  public:
    /** Build the graph over @p files (the lint run's loaded tree). */
    static CallGraph build(const std::vector<SourceFile> &files);

    const std::vector<SourceFile> &files() const { return *srcs; }
    const std::vector<FnInfo> &functions() const { return fns; }
    const std::vector<ClassInfo> &classes() const { return structs; }
    const std::vector<CallSiteInfo> &calls() const { return sites; }

    /** Indices into calls() made from function @p fn, in token
     *  order. */
    const std::vector<std::size_t> &callsOf(std::size_t fn) const;

    /** Indices into functions() whose unqualified name is @p name
     *  (empty when unresolved), in definition order. */
    const std::vector<std::size_t> &
    resolve(const std::string &name) const;

    /** The function whose extent (signature to closing brace)
     *  contains token @p tok of file @p file_index, or kNoFunction. */
    std::size_t enclosingFunction(std::size_t file_index,
                                  std::size_t tok) const;

    /** Class names (with a known constructor or not) whose definition
     *  braces contain @p tok of file @p file_index; innermost last. */
    std::vector<std::string>
    enclosingClasses(std::size_t file_index, std::size_t tok) const;

  private:
    const std::vector<SourceFile> *srcs = nullptr;
    std::vector<FnInfo> fns;
    std::vector<ClassInfo> structs;
    std::vector<CallSiteInfo> sites;
    std::vector<std::vector<std::size_t>> fnCalls;    ///< per caller
    std::map<std::string, std::vector<std::size_t>> byName;
    std::vector<std::size_t> empty;
};

} // namespace vic::analysis

#endif // VIC_ANALYSIS_CALLGRAPH_HH
