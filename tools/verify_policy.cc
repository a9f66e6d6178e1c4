/**
 * @file
 * Protocol lint: statically verify every shipping consistency policy.
 *
 * For each Table 4 configuration and Table 5 system, exhaustively
 * explores the abstract protocol state machine to a fixed point and
 * checks the paper's invariants; the deliberately broken policy must
 * instead yield a minimal counterexample trace that reproduces a
 * ConsistencyOracle violation when replayed on the concrete machine.
 *
 * Beyond the safety check, the tool exposes the cost-aware optimality
 * analyses:
 *
 *   --cost        annotate each policy's reachable transition graph
 *                 with the concrete machine's cycle costs (worst step,
 *                 worst minimal-trace path, op census)
 *   --necessity   prove every issued cache op load-bearing or exhibit
 *                 it as provably redundant, with a minimal trace; the
 *                 check FAILS if a shipping lazy policy issues any
 *                 redundant op or a shipping classic policy retains a
 *                 fully removable call site
 *   --diff-policy A B
 *                 product construction running two sound policies on
 *                 the same event stream; per-Table-2-class worst-case
 *                 cost bounds and divergence counts
 *   --interleave  DPOR exploration of concurrent CPU/DMA/pageout
 *                 schedules (src/mc) per policy: the guarded kernel
 *                 orderings must be race- and violation-free, while
 *                 the broken-ordering exemplars must yield an
 *                 oracle-confirmed race with a minimal replayable
 *                 schedule
 *   --coherence   run the multiprocessor coherence catalog for
 *                 --interleave instead of the standard one: the
 *                 cross-cache sharing pairs must be race-free with a
 *                 positively reported benign pair on the MESI
 *                 machine, and the non-coherent regression must yield
 *                 an oracle-confirmed race (the detector's old
 *                 hard-coded CPU/CPU skip would miss it)
 *   --memory-order sc|weak
 *                 store-visibility model for --interleave: "sc"
 *                 (default) runs the standard catalog; "weak" runs
 *                 the weak-store-order catalog, in which stores drain
 *                 asynchronously through per-CPU FIFO buffers and the
 *                 missing-fence exemplar must be caught as a
 *                 weak-order-window race
 *   --fuzz N      after the exhaustive pass, sample N random maximal
 *                 schedules per scenario; where DPOR exhausted the
 *                 space the samples must stay inside the known trace
 *                 set, and violation-free scenarios must fuzz clean
 *   --fuzz-seed S base seed of the deterministic fuzz streams
 *                 (SplitMix64-derived per scenario; same artifacts
 *                 for any --jobs)
 *   --budget N    complete-schedule budget per scenario (interleave)
 *   --jobs N      worker threads for --interleave (results identical
 *                 for any N)
 *   --json FILE   machine-readable report of everything run
 *                 (schema vic-verify-report-v4)
 *
 * Exit status 0 iff every expectation holds, so CI can gate on it.
 * Unknown flags exit 2, and so does a numeric flag whose value is not
 * a whole decimal number in range (--fuzz, --budget and --jobs must
 * be positive), any of --coherence, --memory-order, --fuzz,
 * --fuzz-seed, --budget and --jobs without --interleave (they
 * configure only that pass), and --coherence with --memory-order
 * weak.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json_writer.hh"
#include "core/policy_config.hh"
#include "mc/explorer.hh"
#include "mc/scenario.hh"
#include "verify/cost_model.hh"
#include "verify/differential.hh"
#include "verify/mc_report.hh"
#include "verify/necessity.hh"
#include "verify/policy_verifier.hh"

namespace
{

using vic::Cycles;
using vic::JsonValue;
using vic::PolicyConfig;
using vic::PmapKind;
namespace verify = vic::verify;

std::vector<PolicyConfig>
allPolicies()
{
    std::vector<PolicyConfig> all = PolicyConfig::table4Sweep();
    for (const PolicyConfig &p : PolicyConfig::table5Systems())
        all.push_back(p);
    all.push_back(PolicyConfig::broken());
    return all;
}

const PolicyConfig *
findPolicy(const std::vector<PolicyConfig> &all, const std::string &name)
{
    for (const PolicyConfig &p : all)
        if (p.name == name)
            return &p;
    return nullptr;
}

bool
expectedSound(const PolicyConfig &p)
{
    return !p.brokenNoConsistency;
}

JsonValue
traceJson(const verify::Trace &t)
{
    JsonValue a = JsonValue::array();
    for (const verify::Event &e : t)
        a.push(JsonValue::str(verify::eventName(e)));
    return a;
}

// ---------------------------------------------------------------------
// Soundness
// ---------------------------------------------------------------------

/** @return true iff the policy met its expectation. */
bool
checkSoundness(const PolicyConfig &policy, JsonValue &out)
{
    const verify::VerifyResult r = verify::verifyPolicy(policy);

    std::printf("%-10s %-8s %8llu states %9llu transitions  "
                "diameter %2u  %6.0f ms\n",
                r.policyName.c_str(), r.sound ? "sound" : "UNSOUND",
                static_cast<unsigned long long>(r.numStates),
                static_cast<unsigned long long>(r.numTransitions),
                r.diameter, r.seconds * 1e3);

    out.set("sound", JsonValue::boolean(r.sound));
    out.set("expectedSound",
            JsonValue::boolean(expectedSound(policy)));
    out.set("fixedPointReached",
            JsonValue::boolean(r.fixedPointReached));
    out.set("states", JsonValue::number(r.numStates));
    out.set("transitions", JsonValue::number(r.numTransitions));
    out.set("diameter",
            JsonValue::number(std::uint64_t(r.diameter)));

    if (!r.fixedPointReached) {
        std::printf("  ERROR: state space truncated before fixed "
                    "point\n");
        return false;
    }

    if (expectedSound(policy) && r.sound)
        return true;

    if (!expectedSound(policy) && r.sound) {
        std::printf("  ERROR: the broken policy verified clean — the "
                    "verifier is vacuous\n");
        return false;
    }

    std::printf("  counterexample (%zu events): %s\n"
                "    %s: %s\n",
                r.counterexample.size(),
                verify::traceName(r.counterexample).c_str(),
                verify::violationKindName(r.violation->kind),
                r.violation->detail.c_str());
    out.set("counterexample", traceJson(r.counterexample));
    out.set("violation",
            JsonValue::str(
                verify::violationKindName(r.violation->kind)));

    // Replay every counterexample on the concrete machine: for the
    // broken policy it proves the verifier finds real bugs; for a
    // policy expected sound it distinguishes a genuine implementation
    // bug from an artifact of the abstraction.
    const verify::ReplayResult rr =
        verify::replay(policy, r.counterexample);
    out.set("replayConfirmed", JsonValue::boolean(rr.violated));
    if (rr.violated)
        std::printf("  replayed on the concrete machine: %llu oracle "
                    "violation(s), first at event %d (%s) — confirmed "
                    "real\n",
                    static_cast<unsigned long long>(rr.violationCount),
                    rr.firstViolationEvent, rr.kind.c_str());
    else
        std::printf("  replayed clean on the concrete machine — "
                    "abstraction artifact?\n");
    if (!expectedSound(policy))
        return rr.violated;

    std::printf("  ERROR: expected sound\n");
    return false;
}

// ---------------------------------------------------------------------
// Cost census
// ---------------------------------------------------------------------

bool
checkCost(const PolicyConfig &policy, JsonValue &out)
{
    const verify::CostCensus c = verify::runCostCensus(policy);

    std::printf("  cost: worst step %llu cyc (%s), worst minimal-path "
                "%llu cyc\n"
                "        ops flush/d-purge/i-purge %llu/%llu/%llu  "
                "present/absent %llu/%llu  faults %llu\n",
                static_cast<unsigned long long>(c.worstStepCycles),
                verify::traceName(c.worstStepTrace).c_str(),
                static_cast<unsigned long long>(c.worstPathCycles),
                static_cast<unsigned long long>(c.dataFlushes),
                static_cast<unsigned long long>(c.dataPurges),
                static_cast<unsigned long long>(c.instPurges),
                static_cast<unsigned long long>(c.presentOps),
                static_cast<unsigned long long>(c.absentOps),
                static_cast<unsigned long long>(c.faults));

    out.set("fixedPointReached",
            JsonValue::boolean(c.fixedPointReached));
    out.set("worstStepCycles", JsonValue::number(c.worstStepCycles));
    out.set("worstStepTrace", traceJson(c.worstStepTrace));
    out.set("worstPathCycles", JsonValue::number(c.worstPathCycles));
    out.set("dataFlushes", JsonValue::number(c.dataFlushes));
    out.set("dataPurges", JsonValue::number(c.dataPurges));
    out.set("instPurges", JsonValue::number(c.instPurges));
    out.set("presentOps", JsonValue::number(c.presentOps));
    out.set("absentOps", JsonValue::number(c.absentOps));
    out.set("faults", JsonValue::number(c.faults));

    if (!c.fixedPointReached) {
        std::printf("  ERROR: cost census truncated before fixed "
                    "point\n");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Necessity
// ---------------------------------------------------------------------

bool
checkNecessity(const PolicyConfig &policy, JsonValue &out)
{
    const verify::NecessityResult r = verify::analyzeNecessity(policy);

    out.set("sound", JsonValue::boolean(r.sound));
    out.set("complete", JsonValue::boolean(r.complete));
    out.set("adversariallyClean",
            JsonValue::boolean(r.adversariallyClean));
    out.set("opsExamined", JsonValue::number(r.opsExamined));
    out.set("redundantOps", JsonValue::number(r.redundantOps));
    out.set("necessaryOps", JsonValue::number(r.necessaryOps));
    out.set("inconclusiveOps", JsonValue::number(r.inconclusiveOps));

    if (!r.sound) {
        // Necessity of ops in an unsound policy is meaningless; only
        // the deliberately broken policy is allowed here.
        std::printf("  necessity: skipped (policy unsound: %s)\n",
                    verify::traceName(r.counterexample).c_str());
        return !expectedSound(policy);
    }

    std::printf("  necessity: %llu ops examined — %llu necessary, "
                "%llu redundant, %llu inconclusive%s\n",
                static_cast<unsigned long long>(r.opsExamined),
                static_cast<unsigned long long>(r.necessaryOps),
                static_cast<unsigned long long>(r.redundantOps),
                static_cast<unsigned long long>(r.inconclusiveOps),
                r.complete ? "" : " (budget exhausted)");

    JsonValue sites = JsonValue::array();
    for (const verify::SiteReport &s : r.sites) {
        JsonValue js = JsonValue::object();
        js.set("site", JsonValue::str(s.site));
        js.set("issued", JsonValue::number(s.issued));
        js.set("redundant", JsonValue::number(s.redundant));
        js.set("necessary", JsonValue::number(s.necessary));
        js.set("inconclusive", JsonValue::number(s.inconclusive));
        js.set("removable", JsonValue::boolean(s.removable()));
        js.set("worstWastedCycles",
               JsonValue::number(s.worstWastedCycles));
        if (s.exemplar) {
            JsonValue ex = JsonValue::object();
            ex.set("prefix", traceJson(s.exemplar->prefix));
            ex.set("event",
                   JsonValue::str(verify::eventName(
                       s.exemplar->event)));
            ex.set("opIndex",
                   JsonValue::number(
                       std::uint64_t(s.exemplar->opIndex)));
            ex.set("op", JsonValue::str(s.exemplar->op.name()));
            ex.set("wastedCycles",
                   JsonValue::number(s.exemplar->wastedCycles));
            js.set("exemplar", std::move(ex));
        }
        sites.push(std::move(js));

        if (s.redundant == 0)
            continue;
        std::printf("    site %-28s issued %6llu  redundant %6llu%s\n",
                    s.site.c_str(),
                    static_cast<unsigned long long>(s.issued),
                    static_cast<unsigned long long>(s.redundant),
                    s.removable() ? "  [site removable]" : "");
        if (s.exemplar) {
            verify::Trace full = s.exemplar->prefix;
            full.push_back(s.exemplar->event);
            std::printf("      e.g. %s issues %s — %llu cycles "
                        "wasted\n",
                        verify::traceName(full).c_str(),
                        s.exemplar->op.name().c_str(),
                        static_cast<unsigned long long>(
                            s.exemplar->wastedCycles));
        }
    }
    out.set("sites", std::move(sites));

    bool ok = true;
    if (!r.complete) {
        std::printf("  ERROR: mutant exploration budget exhausted — "
                    "verdicts below are not all proofs\n");
        ok = false;
    }
    // Gate: a shipping lazy policy must issue no redundant op at all;
    // a shipping classic policy is *expected* to waste per-instance
    // ops (that is the paper's point), but must not retain a call
    // site whose every instance is redundant — such a site is dead
    // code the analyzer proved removable.
    if (policy.pmapKind == PmapKind::Lazy) {
        if (r.redundantOps != 0) {
            std::printf("  ERROR: lazy policy issues %llu provably "
                        "redundant op(s)\n",
                        static_cast<unsigned long long>(
                            r.redundantOps));
            ok = false;
        }
    } else if (r.anyRemovableSite()) {
        std::printf("  ERROR: classic policy has a fully removable "
                    "call site\n");
        ok = false;
    }
    out.set("gatePassed", JsonValue::boolean(ok));
    return ok;
}

// ---------------------------------------------------------------------
// Interleaving exploration
// ---------------------------------------------------------------------

bool
checkInterleave(const PolicyConfig &policy, std::uint64_t budget,
                unsigned jobs, vic::mc::MemoryOrder order,
                bool coherence, std::uint64_t fuzz_samples,
                std::uint64_t fuzz_seed, JsonValue &out)
{
    namespace mc = vic::mc;

    if (!expectedSound(policy)) {
        // A policy that deliberately skips consistency maintenance
        // races everywhere; the abstract verifier already owns that
        // counterexample, so the schedule explorer gates only the
        // shipping orderings.
        std::printf("  interleave: skipped (policy is deliberately "
                    "broken)\n");
        out.set("skipped", JsonValue::boolean(true));
        return true;
    }

    mc::ExploreOptions opt;
    opt.budget = budget;
    const std::vector<mc::Scenario> catalog =
        coherence ? mc::coherenceCatalog(policy)
        : order == mc::MemoryOrder::WeakStoreOrder
            ? mc::weakCatalog(policy)
            : mc::standardCatalog(policy);
    const std::vector<mc::ScenarioResult> results =
        mc::exploreMany(catalog, opt, jobs);

    std::vector<mc::FuzzResult> fuzzed;
    if (fuzz_samples > 0) {
        mc::FuzzOptions fopt;
        fopt.samples = fuzz_samples;
        fopt.seed = fuzz_seed;
        std::vector<std::vector<std::uint64_t>> known;
        for (const mc::ScenarioResult &r : results)
            known.push_back(r.canonicalHashes);
        fuzzed = mc::fuzzMany(catalog, fopt, known, jobs);
    }

    bool ok = true;
    JsonValue scenarios = JsonValue::array();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const mc::ScenarioResult &r = results[i];
        const mc::Expectation &expect = catalog[i].expect;
        const bool pass = r.passed(expect);
        ok &= pass;

        std::printf("  interleave %-24s [%-4s] %5llu runs = %llu "
                    "traces  depth %2llu  races %llu(+%llu benign, "
                    "%llu weak-window)  violations %llu  %s\n",
                    r.scenario.c_str(),
                    mc::memoryOrderName(r.memoryOrder),
                    static_cast<unsigned long long>(r.executions),
                    static_cast<unsigned long long>(r.canonicalTraces),
                    static_cast<unsigned long long>(r.maxDepth),
                    static_cast<unsigned long long>(r.reportedRaces()),
                    static_cast<unsigned long long>(r.benignRaces),
                    static_cast<unsigned long long>(
                        r.weakWindowRaces),
                    static_cast<unsigned long long>(r.violatingRuns),
                    pass ? "ok" : "FAIL");
        if (!pass)
            std::printf("    ERROR: %s\n",
                        !r.exhausted
                            ? "budget exhausted before the schedule "
                              "space was covered"
                        : r.deadlock ? "a schedule deadlocked"
                        : expect.wantConfirmedRace
                            ? "expected an oracle-confirmed race with "
                              "a short replayable schedule"
                            : "unexpected race or violation");
        if (expect.wantConfirmedRace &&
            !r.minimalCounterexampleLabels.empty()) {
            std::printf("    minimal schedule (%zu events, replay "
                        "%s):\n",
                        r.minimalCounterexampleLabels.size(),
                        r.replayConfirmed ? "confirmed"
                                          : "NOT confirmed");
            for (const std::string &l :
                 r.minimalCounterexampleLabels)
                std::printf("      %s\n", l.c_str());
        }

        JsonValue js = verify::scenarioResultJson(r, pass);

        if (!fuzzed.empty()) {
            const mc::FuzzResult &f = fuzzed[i];
            const bool fpass = f.passed(expect, r.exhausted);
            ok &= fpass;
            std::printf("    fuzz %5llu samples: %llu traces (%llu "
                        "new), %llu end states, violations in %llu, "
                        "races %llu(+%llu benign)  %s\n",
                        static_cast<unsigned long long>(f.samples),
                        static_cast<unsigned long long>(
                            f.canonicalTraces),
                        static_cast<unsigned long long>(f.newTraces),
                        static_cast<unsigned long long>(
                            f.distinctEndStates),
                        static_cast<unsigned long long>(
                            f.violatingRuns),
                        static_cast<unsigned long long>(
                            f.reportedRaces()),
                        static_cast<unsigned long long>(
                            f.benignRaces),
                        fpass ? "ok" : "FAIL");
            if (!fpass)
                std::printf("      ERROR: %s\n",
                            r.exhausted && f.newTraces != 0
                                ? "fuzzer sampled a trace the "
                                  "exhausted DPOR pass never saw"
                                : "fuzzing found an unexpected race "
                                  "or violation");
            js.set("fuzz", verify::fuzzResultJson(f, fpass));
        }

        scenarios.push(std::move(js));
    }
    out.set("budget", JsonValue::number(budget));
    out.set("memoryOrder",
            JsonValue::str(mc::memoryOrderName(order)));
    if (coherence)
        out.set("coherenceCatalog", JsonValue::boolean(true));
    if (fuzz_samples > 0) {
        out.set("fuzzSamples", JsonValue::number(fuzz_samples));
        out.set("fuzzSeed", JsonValue::number(fuzz_seed));
    }
    out.set("scenarios", std::move(scenarios));
    out.set("gatePassed", JsonValue::boolean(ok));
    return ok;
}

// ---------------------------------------------------------------------
// Differential
// ---------------------------------------------------------------------

bool
checkDifferential(const PolicyConfig &a, const PolicyConfig &b,
                  JsonValue &out)
{
    const verify::DiffResult r = verify::comparePolicies(a, b);

    out.set("a", JsonValue::str(r.nameA));
    out.set("b", JsonValue::str(r.nameB));
    out.set("comparable", JsonValue::boolean(r.comparable));

    std::printf("\ndifferential %s vs %s:\n", r.nameA.c_str(),
                r.nameB.c_str());
    if (!r.comparable) {
        std::printf("  not comparable: %s is unsound (%s)\n",
                    r.unsoundPolicy.c_str(),
                    verify::traceName(r.unsoundTrace).c_str());
        out.set("unsoundPolicy", JsonValue::str(r.unsoundPolicy));
        out.set("unsoundTrace", traceJson(r.unsoundTrace));
        // Comparing against a broken policy is expected to be
        // rejected; that rejection is the correct behaviour.
        return !expectedSound(a) || !expectedSound(b);
    }

    std::printf("  product: %llu states, %llu transitions%s\n"
                "  %s pays while %s free: %llu transitions; converse: "
                "%llu\n"
                "  worst step %llu vs %llu cyc; worst gap %llu cyc "
                "(%s)\n"
                "  worst minimal-path %llu vs %llu cyc\n",
                static_cast<unsigned long long>(r.productStates),
                static_cast<unsigned long long>(r.productTransitions),
                r.fixedPointReached ? "" : " (TRUNCATED)",
                r.nameA.c_str(), r.nameB.c_str(),
                static_cast<unsigned long long>(r.aPaysBFree),
                static_cast<unsigned long long>(r.bPaysAFree),
                static_cast<unsigned long long>(r.worstStepA),
                static_cast<unsigned long long>(r.worstStepB),
                static_cast<unsigned long long>(r.worstStepGap),
                verify::traceName(r.worstGapTrace).c_str(),
                static_cast<unsigned long long>(r.worstPathA),
                static_cast<unsigned long long>(r.worstPathB));

    std::printf("  per-transition worst-case bounds (cycles):\n"
                "    %-22s %12s %10s %10s\n", "class", "transitions",
                r.nameA.c_str(), r.nameB.c_str());
    JsonValue classes = JsonValue::array();
    for (const verify::DiffClassBound &c : r.classes) {
        std::printf("    %-22s %12llu %10llu %10llu\n",
                    c.label.c_str(),
                    static_cast<unsigned long long>(c.transitions),
                    static_cast<unsigned long long>(c.worstA),
                    static_cast<unsigned long long>(c.worstB));
        JsonValue jc = JsonValue::object();
        jc.set("class", JsonValue::str(c.label));
        jc.set("transitions", JsonValue::number(c.transitions));
        jc.set("worstA", JsonValue::number(c.worstA));
        jc.set("worstB", JsonValue::number(c.worstB));
        classes.push(std::move(jc));
    }
    out.set("productStates", JsonValue::number(r.productStates));
    out.set("productTransitions",
            JsonValue::number(r.productTransitions));
    out.set("aPaysBFree", JsonValue::number(r.aPaysBFree));
    out.set("bPaysAFree", JsonValue::number(r.bPaysAFree));
    out.set("worstStepA", JsonValue::number(r.worstStepA));
    out.set("worstStepB", JsonValue::number(r.worstStepB));
    out.set("worstStepGap", JsonValue::number(r.worstStepGap));
    out.set("worstGapTrace", traceJson(r.worstGapTrace));
    out.set("worstPathA", JsonValue::number(r.worstPathA));
    out.set("worstPathB", JsonValue::number(r.worstPathB));
    out.set("classes", std::move(classes));

    if (!r.fixedPointReached) {
        std::printf("  ERROR: product state space truncated before "
                    "fixed point\n");
        return false;
    }
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--policy NAME] [--cost] [--necessity]\n"
                 "       [--interleave] [--coherence] "
                 "[--memory-order sc|weak]\n"
                 "       [--fuzz N] [--fuzz-seed S] [--budget N] "
                 "[--jobs N]\n"
                 "       [--diff-policy A B] [--json FILE] "
                 "[--list]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool do_cost = false;
    bool do_necessity = false;
    bool do_interleave = false;
    bool coherence = false;
    std::uint64_t budget = 20000;
    vic::mc::MemoryOrder order = vic::mc::MemoryOrder::SC;
    std::uint64_t fuzz_samples = 0;
    std::uint64_t fuzz_seed = 0x5eed;
    unsigned jobs = 1;
    std::string only;
    std::string json_path;
    std::string diff_a, diff_b;
    // The last flag given that configures only --interleave.
    std::string interleave_flag;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--coherence" || arg == "--memory-order" ||
            arg == "--fuzz" || arg == "--fuzz-seed" ||
            arg == "--budget" || arg == "--jobs")
            interleave_flag = arg;
        if (arg == "--cost") {
            do_cost = true;
        } else if (arg == "--necessity") {
            do_necessity = true;
        } else if (arg == "--interleave") {
            do_interleave = true;
        } else if (arg == "--coherence") {
            coherence = true;
        } else if (arg == "--memory-order") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--memory-order requires sc|weak\n");
                return usage(argv[0]);
            }
            const std::string mo = argv[++i];
            if (mo == "sc") {
                order = vic::mc::MemoryOrder::SC;
            } else if (mo == "weak") {
                order = vic::mc::MemoryOrder::WeakStoreOrder;
            } else {
                std::fprintf(stderr,
                             "unknown memory order '%s' (sc|weak)\n",
                             mo.c_str());
                return usage(argv[0]);
            }
        } else if (arg == "--fuzz") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--fuzz requires a count\n");
                return usage(argv[0]);
            }
            fuzz_samples = vic::parseCount(arg, argv[++i], std::uint64_t(1));
        } else if (arg == "--fuzz-seed") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--fuzz-seed requires a seed\n");
                return usage(argv[0]);
            }
            fuzz_seed = vic::parseCount(arg, argv[++i], std::uint64_t(0));
        } else if (arg == "--budget") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--budget requires a count\n");
                return usage(argv[0]);
            }
            budget = vic::parseCount(arg, argv[++i], std::uint64_t(1));
        } else if (arg == "--jobs") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--jobs requires a count\n");
                return usage(argv[0]);
            }
            jobs = vic::parseCount(arg, argv[++i], 1u);
        } else if (arg == "--policy") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--policy requires a name\n");
                return usage(argv[0]);
            }
            only = argv[++i];
        } else if (arg == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json requires a file path\n");
                return usage(argv[0]);
            }
            json_path = argv[++i];
        } else if (arg == "--diff-policy") {
            if (i + 2 >= argc) {
                std::fprintf(stderr,
                             "--diff-policy requires two policy "
                             "names\n");
                return usage(argv[0]);
            }
            diff_a = argv[++i];
            diff_b = argv[++i];
        } else if (arg == "--list") {
            for (const PolicyConfig &p : allPolicies())
                std::printf("%s\n", p.name.c_str());
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }

    // Without --interleave such a flag would be ignored, and the
    // coherence catalog is explored under SC only.
    if (!do_interleave && !interleave_flag.empty()) {
        std::fprintf(stderr, "%s requires --interleave\n",
                     interleave_flag.c_str());
        return usage(argv[0]);
    }
    if (coherence && order == vic::mc::MemoryOrder::WeakStoreOrder) {
        std::fprintf(stderr, "--coherence runs under sc only, not "
                             "--memory-order weak\n");
        return usage(argv[0]);
    }

    const std::vector<PolicyConfig> all = allPolicies();
    if (!only.empty() && findPolicy(all, only) == nullptr) {
        std::fprintf(stderr, "unknown policy '%s' (try --list)\n",
                     only.c_str());
        return 2;
    }
    const PolicyConfig *pa = nullptr;
    const PolicyConfig *pb = nullptr;
    if (!diff_a.empty()) {
        pa = findPolicy(all, diff_a);
        pb = findPolicy(all, diff_b);
        if (pa == nullptr || pb == nullptr) {
            std::fprintf(stderr,
                         "unknown policy '%s' (try --list)\n",
                         (pa == nullptr ? diff_a : diff_b).c_str());
            return 2;
        }
    }

    JsonValue report = JsonValue::object();
    report.set("schema",
               JsonValue::str(verify::kVerifyReportSchemaV4));
    report.set("machine", JsonValue::str("hp720"));
    JsonValue policies = JsonValue::array();

    bool all_ok = true;
    for (const PolicyConfig &p : all) {
        if (!only.empty() && p.name != only)
            continue;
        JsonValue jp = JsonValue::object();
        jp.set("name", JsonValue::str(p.name));
        bool ok = checkSoundness(p, jp);
        if (do_cost) {
            JsonValue jc = JsonValue::object();
            ok &= checkCost(p, jc);
            jp.set("cost", std::move(jc));
        }
        if (do_necessity) {
            JsonValue jn = JsonValue::object();
            ok &= checkNecessity(p, jn);
            jp.set("necessity", std::move(jn));
        }
        if (do_interleave) {
            JsonValue ji = JsonValue::object();
            ok &= checkInterleave(p, budget, jobs, order, coherence,
                                  fuzz_samples, fuzz_seed, ji);
            jp.set("interleave", std::move(ji));
        }
        jp.set("ok", JsonValue::boolean(ok));
        policies.push(std::move(jp));
        all_ok &= ok;
    }
    report.set("policies", std::move(policies));

    if (pa != nullptr) {
        JsonValue jd = JsonValue::object();
        all_ok &= checkDifferential(*pa, *pb, jd);
        report.set("differential", std::move(jd));
    }

    report.set("ok", JsonValue::boolean(all_ok));
    if (!json_path.empty()) {
        std::ofstream f(json_path);
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         json_path.c_str());
            return 2;
        }
        f << report.dump(2) << '\n';
        std::printf("\nreport written to %s\n", json_path.c_str());
    }

    std::printf("\nverify_policy: %s\n",
                all_ok ? "all policies behave as expected"
                       : "FAILURES detected");
    return all_ok ? 0 : 1;
}
