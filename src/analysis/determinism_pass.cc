/**
 * @file
 * Pass 1: determinism — a token-aware ban on nondeterministic sources.
 *
 * The simulator, benches and analyzers must be bit-reproducible: same
 * inputs, same artifacts, across runs, machines and --jobs settings
 * (ci.sh gates on artifact equality). Any wall-clock or entropy
 * source in simulation code silently breaks that contract, and the
 * standard library's random engines have implementation-defined
 * streams, so only the repo's own SplitMix64/xoshiro generators
 * (src/common/random.hh) are sanctioned.
 *
 * Being token-aware avoids both failure modes of a grep lint: a
 * banned name inside a comment or string literal is not a false
 * positive, and `time(` at the start of a line (which a
 * `[^a-zA-Z_]time\(` regex cannot see) is not a miss.
 *
 * std::chrono::steady_clock stays legal: it measures elapsed host
 * time for progress/throughput reporting and never feeds simulated
 * state.
 *
 * Rules:
 *   det-wallclock   std::chrono::system_clock, C time()
 *   det-entropy     rand()/srand(), std::random_device
 *   det-std-random  std random engines/distributions, std::shuffle
 *   det-unordered   unordered containers in src/mc (exploration
 *                   results must be identical across --jobs; hash
 *                   iteration order is seed- and ASLR-dependent),
 *                   in src/common *headers* (the sim-visible APIs
 *                   every artifact flows through — including the
 *                   Arena, whose allocation order must stay a pure
 *                   function of the call sequence), and in all of
 *                   src/mmu (the arena-backed page table derives its
 *                   chains from a fixed key mix precisely so no
 *                   host-dependent hash can slip back in)
 */

#include "analysis/cpp_scan.hh"
#include "analysis/pass.hh"

#include "common/logging.hh"

namespace vic::analysis
{
namespace
{

const char *const kWallclockIdents[] = {"system_clock"};
const char *const kEntropyCalls[] = {"rand", "srand"};
const char *const kEntropyIdents[] = {"random_device"};
const char *const kStdRandomIdents[] = {
    "mt19937",      "mt19937_64",     "minstd_rand",
    "minstd_rand0", "default_random_engine",
    "uniform_int_distribution",       "uniform_real_distribution",
};

bool
inList(const std::string &s, const char *const *list, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (s == list[i])
            return true;
    }
    return false;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Identifier immediately followed by '(' — a call or declarator. */
bool
calledNext(const std::vector<Token> &toks, std::size_t i)
{
    return isPunct(toks, skipComments(toks, i + 1), "(");
}

/** Identifier preceded by "std ::". */
bool
stdQualified(const std::vector<Token> &toks, std::size_t i)
{
    if (i < 2)
        return false;
    return isPunct(toks, i - 1, "::") && isIdent(toks, i - 2, "std");
}

class DeterminismPass : public Pass
{
  public:
    const char *name() const override { return "determinism"; }

    const char *summary() const override
    {
        return "no wall-clock, entropy source, or std random engine "
               "in simulation code; no unordered containers in the "
               "model checker or sim-visible common headers";
    }

    std::vector<RuleInfo> rules() const override
    {
        return {
            {"det-wallclock",
             "wall-clock time source (std::chrono::system_clock, C "
             "time())"},
            {"det-entropy",
             "entropy source (rand/srand, std::random_device)"},
            {"det-std-random",
             "std random engine/distribution/shuffle — streams are "
             "implementation-defined; use src/common/random.hh"},
            {"det-unordered",
             "unordered container where iteration order escapes "
             "(src/mc, src/common headers, src/mmu)"},
        };
    }

    void run(const std::vector<SourceFile> &files,
             Sink &sink) const override
    {
        for (const SourceFile &f : files) {
            scanBans(f, sink);
            if (startsWith(f.path, "src/mc/") ||
                startsWith(f.path, "src/mmu/") ||
                (startsWith(f.path, "src/common/") &&
                 f.path.size() > 3 &&
                 f.path.compare(f.path.size() - 3, 3, ".hh") == 0))
                scanUnordered(f, sink);
        }
    }

  private:
    void scanBans(const SourceFile &f, Sink &sink) const
    {
        const std::vector<Token> &toks = f.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::Ident)
                continue;
            if (inList(t.text, kWallclockIdents, 1)) {
                sink.report("det-wallclock", f.path, t.line, t.col,
                            format("wall-clock source '%s' in "
                                   "simulation code",
                                   t.text.c_str()));
            } else if (t.text == "time" && calledNext(toks, i)) {
                sink.report("det-wallclock", f.path, t.line, t.col,
                            "C time() in simulation code");
            } else if (inList(t.text, kEntropyCalls, 2) &&
                       calledNext(toks, i)) {
                sink.report("det-entropy", f.path, t.line, t.col,
                            format("entropy source '%s()' in "
                                   "simulation code",
                                   t.text.c_str()));
            } else if (inList(t.text, kEntropyIdents, 1)) {
                sink.report("det-entropy", f.path, t.line, t.col,
                            "std::random_device in simulation code");
            } else if (inList(t.text, kStdRandomIdents, 7)) {
                sink.report("det-std-random", f.path, t.line, t.col,
                            format("std random engine/distribution "
                                   "'%s' — draw from "
                                   "src/common/random.hh streams",
                                   t.text.c_str()));
            } else if (t.text == "shuffle" && stdQualified(toks, i)) {
                sink.report("det-std-random", f.path, t.line, t.col,
                            "std::shuffle uses an "
                            "implementation-defined engine "
                            "interaction — permute explicitly");
            }
        }
    }

    void scanUnordered(const SourceFile &f, Sink &sink) const
    {
        for (const Token &t : f.tokens) {
            if (t.kind != TokKind::Ident)
                continue;
            if (startsWith(t.text, "unordered_")) {
                sink.report(
                    "det-unordered", f.path, t.line, t.col,
                    format("'%s' has hash-seed/address-dependent "
                           "iteration order; use std::map/std::set",
                           t.text.c_str()));
            }
        }
    }
};

} // anonymous namespace

std::unique_ptr<Pass>
makeDeterminismPass()
{
    return std::make_unique<DeterminismPass>();
}

} // namespace vic::analysis
