/**
 * @file
 * Diagnostics.
 *
 * Every finding is a Diagnostic with a stable rule id and an exact
 * file:line:col location. There is no inline suppression: a finding
 * is fixed, or the invariant moves into a type.
 */

#ifndef VIC_ANALYSIS_DIAGNOSTICS_HH
#define VIC_ANALYSIS_DIAGNOSTICS_HH

#include <cstdint>
#include <string>
#include <vector>

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

/**
 * Collects diagnostics from passes. finalize() sorts them by
 * (file, line, col, rule) for deterministic output.
 */
class Sink
{
  public:
    /** Report a finding. */
    void report(const std::string &rule, const std::string &file,
                std::uint32_t line, std::uint32_t col,
                std::string message);

    void finalize();

    const std::vector<Diagnostic> &diagnostics() const
    { return diags; }

  private:
    std::vector<Diagnostic> diags;
};

} // namespace vic::analysis

#endif // VIC_ANALYSIS_DIAGNOSTICS_HH
