/**
 * @file
 * Source discovery for the static analyzer.
 *
 * A lint run operates on a ROOT directory holding a vic-style tree
 * (src/, tools/, bench/, tests/, examples/). Discovery is fully
 * deterministic: the directory walk's results are sorted by
 * repo-relative path, so diagnostics, reports and exit codes are
 * byte-identical across filesystems and runs — the same contract the
 * simulator's artifacts obey.
 */

#ifndef VIC_ANALYSIS_SOURCE_HH
#define VIC_ANALYSIS_SOURCE_HH

#include <string>
#include <vector>

#include "analysis/token.hh"

namespace vic::analysis
{

struct SourceFile
{
    /** Repo-relative path with '/' separators ("src/os/kernel.cc"). */
    std::string path;
    std::string text;
    std::vector<Token> tokens;
};

/**
 * Load every .cc/.hh file under the standard top-level directories of
 * @p root (src, tools, bench, tests, examples — those that exist),
 * tokenized, sorted by path. Paths containing "lint_fixtures" are
 * skipped: fixture trees are lint roots of their own, not part of the
 * tree under analysis.
 */
std::vector<SourceFile> loadTree(const std::string &root);

/** @return @p root ends with a path separator stripped, for display. */
std::string normalizeRoot(const std::string &root);

} // namespace vic::analysis

#endif // VIC_ANALYSIS_SOURCE_HH
