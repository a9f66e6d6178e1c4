/**
 * @file
 * The per-file pass framework.
 *
 * A Pass owns a family of rule ids, scans the discovered files and
 * reports diagnostics into the shared Sink (which applies inline
 * suppressions). Passes are stateless between runs and must be
 * deterministic: same tree in, byte-identical diagnostics out.
 */

#ifndef VIC_ANALYSIS_PASS_HH
#define VIC_ANALYSIS_PASS_HH

#include <cstdint>
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

/** Wall-independent effort counters one pass reports into the v2
 *  report ("pass_stats"); zero for the purely per-file passes. */
struct PassStats
{
    std::uint64_t functionsAnalyzed = 0;
    std::uint64_t summariesComputed = 0;
    std::uint64_t fixpointIterations = 0;
};

struct PassContext
{
    std::string root;
    const std::vector<SourceFile> &files;
};

class Pass
{
  public:
    virtual ~Pass() = default;
    virtual const char *name() const = 0;
    virtual const char *summary() const = 0;
    virtual std::vector<RuleInfo> rules() const = 0;
    virtual void run(const PassContext &ctx, Sink &sink,
                     PassStats &stats) const = 0;
};

// Factories, one per pass (definitions live with each pass).
std::unique_ptr<Pass> makeDeterminismPass();
std::unique_ptr<Pass> makeAddrKindPass();
std::unique_ptr<Pass> makeLayeringPass();

/** All passes in their canonical run order. */
std::vector<std::unique_ptr<Pass>> makeAllPasses();

} // namespace vic::analysis

#endif // VIC_ANALYSIS_PASS_HH
