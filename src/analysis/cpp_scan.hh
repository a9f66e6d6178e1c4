/**
 * @file
 * Lightweight structural scanning over token streams: token tests and
 * brace matching. This is NOT a C++ parser — it is the minimal
 * brace-matched view the passes need, tuned to this repository's code
 * style (clang-format enforced, no preprocessor tricks around braces).
 */

#ifndef VIC_ANALYSIS_CPP_SCAN_HH
#define VIC_ANALYSIS_CPP_SCAN_HH

#include <cstddef>
#include <vector>

#include "analysis/token.hh"

namespace vic::analysis
{

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

} // namespace vic::analysis

#endif // VIC_ANALYSIS_CPP_SCAN_HH
