/**
 * @file
 * Diagnostics and inline suppressions.
 *
 * Every finding is a Diagnostic with a stable rule id and an exact
 * file:line:col location. A diagnostic can be silenced at its site
 * with an inline comment:
 *
 *     // vic-lint: allow(<rule-id>): <reason>
 *
 * A suppression comment that is alone on its line covers the next
 * source line (stacking: several suppression lines cover the same
 * following code line); a trailing comment covers its own line. The
 * reason is MANDATORY — an allow() without one is itself a diagnostic
 * (suppress-undocumented), and an allow() that silences nothing is
 * flagged too (suppress-unused), so the tree's suppression inventory
 * can never rot silently.
 */

#ifndef VIC_ANALYSIS_DIAGNOSTICS_HH
#define VIC_ANALYSIS_DIAGNOSTICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/source.hh"

namespace vic::analysis
{

struct Diagnostic
{
    std::string rule;
    std::string file;
    std::uint32_t line = 0;
    std::uint32_t col = 0;
    std::string message;

    /** "file:line:col: rule: message" display form. */
    std::string render() const;
};

struct Suppression
{
    std::string rule;
    std::string file;
    std::uint32_t commentLine = 0;  ///< where the allow() comment sits
    std::uint32_t targetLine = 0;   ///< line of code it covers
    std::string reason;
    bool used = false;
};

/** Rule ids owned by the suppression machinery itself (these two are
 *  deliberately not suppressible). */
inline constexpr const char *kRuleSuppressUndocumented =
    "suppress-undocumented";
inline constexpr const char *kRuleSuppressUnused = "suppress-unused";

/**
 * Collects diagnostics from passes, applying suppressions. finalize()
 * appends the suppression-hygiene diagnostics and sorts everything by
 * (file, line, col, rule) for deterministic output.
 */
class Sink
{
  public:
    /** Scan every file's comments for vic-lint: allow() markers. */
    void collectSuppressions(const std::vector<SourceFile> &files);

    /** Report a finding; dropped (and the suppression marked used)
     *  when a matching allow() covers @p line of @p file. */
    void report(const std::string &rule, const std::string &file,
                std::uint32_t line, std::uint32_t col,
                std::string message);

    /** @p active_rules lists every rule id a selected pass owns;
     *  suppress-unused only fires for suppressions of those rules, so
     *  a single-pass run (--pass determinism) does not condemn the
     *  other passes' suppressions. */
    void finalize(const std::vector<std::string> &active_rules);

    const std::vector<Diagnostic> &diagnostics() const
    { return diags; }
    const std::vector<Suppression> &suppressions() const
    { return sups; }

  private:
    std::vector<Diagnostic> diags;
    std::vector<Suppression> sups;
};

} // namespace vic::analysis

#endif // VIC_ANALYSIS_DIAGNOSTICS_HH
