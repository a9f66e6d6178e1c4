/**
 * @file
 * Lightweight structural scanning over token streams: brace matching
 * and function-definition discovery. This is NOT a C++ parser — it is
 * the minimal brace-matched view the call graph and the spec-table
 * parsers need, tuned to this repository's code style
 * (clang-format enforced, no preprocessor tricks around braces).
 */

#ifndef VIC_ANALYSIS_CPP_SCAN_HH
#define VIC_ANALYSIS_CPP_SCAN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/token.hh"

namespace vic::analysis
{

/** One function definition: name plus the token range of its body
 *  (open/close index the '{' and '}' tokens). */
struct FnBody
{
    std::string name;   ///< unqualified ("frameAddr", not "A::b")
    std::size_t open = 0;
    std::size_t close = 0;
};

/** True if the token at @p i is punctuation @p p. */
bool isPunct(const std::vector<Token> &toks, std::size_t i,
             const char *p);

/** True if the token at @p i is identifier @p id. */
bool isIdent(const std::vector<Token> &toks, std::size_t i,
             const char *id);

/** Index of the next non-comment token at or after @p i (or
 *  toks.size()). */
std::size_t skipComments(const std::vector<Token> &toks, std::size_t i);

/** Given @p i at an opening '(' / '{' / '[', index of its matching
 *  closer; toks.size() when unbalanced. Comments are transparent. */
std::size_t matchForward(const std::vector<Token> &toks, std::size_t i);

/**
 * Every function definition in the stream, in order. A '{' opens a
 * function body when, walking back over comments and the qualifiers
 * const/noexcept/override/final, it is preceded by a balanced (...)
 * whose head token is an identifier that is not a control keyword
 * (if/for/while/switch/catch). Constructor initialiser lists resolve
 * to the last initialiser's name, which is fine: callers only use the
 * name for exemption matching. Nested bodies (lambdas) are NOT
 * reported separately; they live inside their enclosing range.
 */
std::vector<FnBody> findFunctions(const std::vector<Token> &toks);

} // namespace vic::analysis

#endif // VIC_ANALYSIS_CPP_SCAN_HH
