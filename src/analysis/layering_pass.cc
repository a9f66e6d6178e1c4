/**
 * @file
 * Pass 5: layering — the include DAG between src/ subsystems.
 *
 * The simulator stacks cleanly: pure leaf utilities at the bottom,
 * hardware components above them, the machine that wires the
 * hardware together, the protocol core, the OS that drives it, and
 * verification/experiment harnesses on top. A downward include
 * (cache/ pulling in os/, say) couples a hardware model to policy it
 * must stay agnostic of, and — concretely — breaks the ability to
 * unit-test a layer with only its lower neighbours linked.
 *
 * Layer ranks (include allowed iff target dir rank is strictly
 * lower, or the same directory):
 *
 *   0  common                      pure utilities (incl. the
 *                                  column-store and arena layout
 *                                  helpers — leaf containers with no
 *                                  upward knowledge)
 *   1  mem, mmu, oracle            leaf models
 *   2  cache, tlb                  indexed hardware (cache needs mem)
 *   3  dma                         engines driving cache+mem
 *   4  machine                     wires CPUs, caches, bus, DMA
 *   5  core                        pmaps + protocol spec tables
 *   6  os                          kernel, VM, buffer cache
 *   7  workload, mc                drivers of a whole OS/machine
 *   8  verify, experiment, analysis   harnesses over everything
 *   9  (src/vic.hh)                the umbrella header
 *
 * Only quoted includes between src/ subsystems are ranked; angled
 * system includes and files outside src/ (tools, tests, bench) are
 * exempt — executables may reach any layer.
 */

#include <map>

#include "analysis/cpp_scan.hh"
#include "analysis/pass.hh"

#include "common/logging.hh"

namespace vic::analysis
{
namespace
{

const std::map<std::string, int> kRank = {
    {"common", 0},  {"mem", 1},      {"mmu", 1},
    {"oracle", 1},  {"cache", 2},    {"tlb", 2},
    {"dma", 3},     {"machine", 4},  {"core", 5},
    {"os", 6},      {"workload", 7}, {"mc", 7},
    {"verify", 8},  {"experiment", 8}, {"analysis", 8},
};

/** First path component of a quoted include ("cache/cache.hh" ->
 *  "cache"), or "" when there is none. */
std::string
includeDir(const std::string &inc)
{
    const std::size_t slash = inc.find('/');
    if (slash == std::string::npos)
        return "";
    return inc.substr(0, slash);
}

class LayeringPass : public Pass
{
  public:
    const char *name() const override { return "layering"; }

    const char *summary() const override
    {
        return "quoted includes between src/ subsystems must point "
               "strictly down the layer DAG (common < hardware < "
               "machine < core < os < drivers < harnesses)";
    }

    std::vector<RuleInfo> rules() const override
    {
        return {
            {"layer-cycle",
             "a src/ file includes a same- or higher-ranked "
             "subsystem, coupling a lower layer upward"},
            {"layer-unknown",
             "a src/ subsystem directory is missing from the "
             "analyzer's rank table — assign it a layer"},
        };
    }

    void run(const std::vector<SourceFile> &files,
             Sink &sink) const override
    {
        for (const SourceFile &f : files) {
            if (f.path.rfind("src/", 0) != 0)
                continue;
            const std::string from = dirOf(f.path);
            const int from_rank = rankOf(from);
            for (const Token &t : f.tokens) {
                if (t.kind != TokKind::Include)
                    continue;
                if (t.text.empty() || t.text.front() != '"')
                    continue;  // angled system include
                const std::string inc =
                    t.text.substr(1, t.text.size() - 2);
                const std::string to = includeDir(inc);
                if (to.empty() || to == from)
                    continue;
                const auto it = kRank.find(to);
                if (it == kRank.end()) {
                    sink.report(
                        "layer-unknown", f.path, t.line, t.col,
                        format("include \"%s\" targets subsystem "
                               "'%s' with no assigned layer",
                               inc.c_str(), to.c_str()));
                    continue;
                }
                if (it->second >= from_rank) {
                    sink.report(
                        "layer-cycle", f.path, t.line, t.col,
                        format("%s (layer %d) must not include "
                               "\"%s\" (%s is layer %d) — includes "
                               "point strictly down the stack",
                               from.c_str(), from_rank, inc.c_str(),
                               to.c_str(), it->second));
                }
            }
        }
    }

  private:
    /** Subsystem of a repo-relative src path; src/vic.hh maps to the
     *  pseudo-layer above everything. */
    static std::string dirOf(const std::string &path)
    {
        const std::string rest = path.substr(4);  // past "src/"
        const std::size_t slash = rest.find('/');
        if (slash == std::string::npos)
            return "";  // src/vic.hh itself
        return rest.substr(0, slash);
    }

    static int rankOf(const std::string &dir)
    {
        if (dir.empty())
            return 9;  // the umbrella header sits on top
        const auto it = kRank.find(dir);
        return it == kRank.end() ? 9 : it->second;
    }
};

} // anonymous namespace

std::unique_ptr<Pass>
makeLayeringPass()
{
    return std::make_unique<LayeringPass>();
}

} // namespace vic::analysis
