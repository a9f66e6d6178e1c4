/**
 * @file
 * Top-level orchestration: discover the tree, run the selected
 * passes, render the report.
 *
 * One Linter run is one LintReport — the in-memory form of the
 * LINT_report.json artifact (schema "vic-lint-report-v3"). The JSON
 * is built with the repo's insertion-ordered JsonValue, so a report
 * is byte-identical across runs on the same tree, like every other
 * vic artifact.
 */

#ifndef VIC_ANALYSIS_LINTER_HH
#define VIC_ANALYSIS_LINTER_HH

#include <string>
#include <vector>

#include "analysis/pass.hh"

#include "common/json_writer.hh"

namespace vic::analysis
{

/** One active rule (id + summary), kept for the SARIF driver. */
struct ActiveRule
{
    std::string id;
    std::string summary;
};

struct LintReport
{
    std::string root;
    std::vector<std::string> passesRun;
    std::size_t filesScanned = 0;
    std::vector<Diagnostic> diagnostics;
    /** Rules of the selected passes, in registration order. */
    std::vector<ActiveRule> activeRules;

    bool clean() const { return diagnostics.empty(); }

    /** The "vic-lint-report-v3" document. */
    JsonValue toJson() const;

    /** One "file:line:col: rule: message" line per diagnostic. */
    std::vector<std::string> renderLines() const;
};

/**
 * Run the passes whose names appear in @p pass_names (empty = all)
 * over the tree at @p root.
 */
LintReport runLint(const std::string &root,
                   const std::vector<std::string> &pass_names);

} // namespace vic::analysis

#endif // VIC_ANALYSIS_LINTER_HH
