#include "bench/suites.hh"

#include <algorithm>

#include "workload/afs_bench.hh"
#include "workload/kernel_build.hh"
#include "workload/latex_bench.hh"

namespace vic::bench
{

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

namespace
{

std::vector<Suite> &
registry()
{
    static std::vector<Suite> suites;
    return suites;
}

} // anonymous namespace

void
registerSuite(Suite suite)
{
    registry().push_back(std::move(suite));
}

std::vector<const Suite *>
allSuites()
{
    std::vector<const Suite *> out;
    for (const Suite &s : registry())
        out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const Suite *a, const Suite *b) {
                  return a->order < b->order;
              });
    return out;
}

const Suite *
findSuite(const std::string &name)
{
    for (const Suite &s : registry()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

// ----------------------------------------------------------------------
// Paper workloads
// ----------------------------------------------------------------------

std::unique_ptr<Workload>
makePaperWorkload(std::size_t idx)
{
    switch (idx) {
      case 0: return std::make_unique<AfsBench>();
      case 1: return std::make_unique<LatexBench>();
      default: return std::make_unique<KernelBuild>();
    }
}

std::uint64_t
paperWorkloadSeed(std::size_t idx)
{
    switch (idx) {
      case 0: return AfsBench::Params{}.seed;
      case 1: return LatexBench::Params{}.seed;
      default: return KernelBuild::Params{}.seed;
    }
}

std::string
policyTag(const PolicyConfig &policy)
{
    // Policy display names carry explanatory suffixes
    // ("F (+will overwrite)"); ids use the leading tag only.
    const std::size_t space = policy.name.find(' ');
    return space == std::string::npos ? policy.name
                                      : policy.name.substr(0, space);
}

RunSpec
paperSpec(const std::string &suite, std::size_t idx,
          const PolicyConfig &policy, const MachineParams &mp,
          const std::string &variant)
{
    static const char *names[] = {"afs-bench", "latex-paper",
                                  "kernel-build"};
    RunSpec spec;
    spec.suite = suite;
    spec.id = suite + "/" + names[idx < 2 ? idx : 2] + "/" +
              policyTag(policy);
    if (!variant.empty())
        spec.id += "/" + variant;
    spec.make = [idx] { return makePaperWorkload(idx); };
    spec.policy = policy;
    spec.machine = mp;
    spec.seed = paperWorkloadSeed(idx);
    return spec;
}

// ----------------------------------------------------------------------
// Report helpers
// ----------------------------------------------------------------------

bool
outcomesClean(const std::vector<RunOutcome> &outcomes)
{
    bool clean = true;
    for (const RunOutcome &out : outcomes) {
        if (!out.ok) {
            std::fprintf(stderr, "FAILED run %s: %s\n",
                         out.id.c_str(), out.error.c_str());
            clean = false;
        } else if (out.result.oracleViolations != 0) {
            std::fprintf(
                stderr,
                "FATAL: %llu consistency violations in %s\n",
                (unsigned long long)out.result.oracleViolations,
                out.id.c_str());
            clean = false;
        }
    }
    return clean;
}

bool
shapeCheck(bool ok, const char *what)
{
    std::printf("SHAPE CHECK: %s (%s)\n", ok ? "PASS" : "FAIL", what);
    return ok;
}

void
suiteBanner(const Suite &suite)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n", suite.title.c_str());
    std::printf("reproduces: %s\n", suite.paperRef.c_str());
    std::printf("machine: scaled HP 9000/720 (50 MHz, VIPT "
                "write-back D-cache)\n");
    std::printf("==============================================="
                "=====================\n\n");
}

} // namespace vic::bench
