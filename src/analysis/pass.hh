/**
 * @file
 * The per-file pass framework.
 *
 * A Pass owns a family of rule ids, scans the discovered files one at
 * a time and reports diagnostics into the shared Sink. Passes are
 * stateless between runs and must be deterministic: same tree in,
 * byte-identical diagnostics out.
 */

#ifndef VIC_ANALYSIS_PASS_HH
#define VIC_ANALYSIS_PASS_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/source.hh"

namespace vic::analysis
{

struct RuleInfo
{
    const char *id;
    const char *summary;
};

class Pass
{
  public:
    virtual ~Pass() = default;
    virtual const char *name() const = 0;
    virtual const char *summary() const = 0;
    virtual std::vector<RuleInfo> rules() const = 0;
    virtual void run(const std::vector<SourceFile> &files,
                     Sink &sink) const = 0;
};

// Factories, one per pass (definitions live with each pass).
std::unique_ptr<Pass> makeDeterminismPass();
std::unique_ptr<Pass> makeLayeringPass();

/** All passes in their canonical run order. */
std::vector<std::unique_ptr<Pass>> makeAllPasses();

} // namespace vic::analysis

#endif // VIC_ANALYSIS_PASS_HH
