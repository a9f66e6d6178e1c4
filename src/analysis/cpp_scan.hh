/**
 * @file
 * Token tests over token streams. This is NOT a C++ parser — it is the
 * minimal view the per-file passes need.
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

} // namespace vic::analysis

#endif // VIC_ANALYSIS_CPP_SCAN_HH
