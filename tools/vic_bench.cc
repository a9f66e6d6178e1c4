/**
 * @file
 * vic_bench — the aggregating bench driver.
 *
 * Collects the RunSpecs of every registered suite (bench/suites.hh)
 * into ONE engine batch, fans the runs out across --jobs worker
 * threads, then replays each suite's report over its slice of the
 * outcomes and writes the whole sweep as a single versioned JSON
 * artifact. Because the engine collects outcomes in spec order and
 * every run owns its machine, the artifact is byte-identical between
 * --jobs 1 and --jobs N apart from the wall-clock fields — which is
 * exactly what --diff checks.
 *
 * Usage:
 *   vic_bench [--list] [--filter s1,s2] [--jobs N] [--smoke]
 *             [--json PATH] [--throughput PATH]
 *             [--ratchet BASELINE.json] [--trace N] [--progress]
 *   vic_bench --diff A.json B.json
 *
 * --filter takes comma-separated substrings matched against suite
 * names and run ids (a suite is swept when its name matches, or run
 * by run when individual ids match). Exit status: 0 when every
 * selected run completed without oracle violations and every
 * non-advisory shape check passed. --jobs (>= 1) and --trace (>= 0)
 * take whole decimal numbers; anything else exits 2.
 *
 * --throughput writes the vic-bench-throughput companion artifact
 * (per-run host_seconds / sim_cycles / cycles_per_host_second) after
 * a sweep; --list reads the same file (default BENCH_throughput.json)
 * to fill its throughput column from the last archived sweep.
 *
 * --ratchet BASELINE.json gates on host throughput: the sweep's
 * aggregate cycles_per_host_second — computed over the run ids
 * present in BOTH the baseline and this sweep, so suite additions
 * don't skew the ratio — must not regress more than 10% below the
 * archived baseline, or the sweep exits non-zero. A missing baseline
 * passes (bootstrap). Pair with --throughput to refresh the baseline
 * on pass; the throughput file is not written when the ratchet fails.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/suites.hh"
#include "common/cli.hh"
#include "common/logging.hh"

namespace
{

using namespace vic;
using namespace vic::bench;

/** Per-suite throughput from an archived vic-bench-throughput
 *  artifact: suite name -> (sim cycles, host seconds), summed over
 *  the suite's runs. Empty when the file is absent or unreadable. */
std::map<std::string, std::pair<double, double>>
loadThroughput(const std::string &path)
{
    std::map<std::string, std::pair<double, double>> by_suite;
    std::ifstream in(path);
    if (!in)
        return by_suite;
    std::ostringstream ss;
    ss << in.rdbuf();
    try {
        const JsonValue v = JsonValue::parse(ss.str());
        const JsonValue *runs = v.find("runs");
        if (!runs)
            return by_suite;
        for (const JsonValue &run : runs->items()) {
            const JsonValue *suite = run.find("suite");
            const JsonValue *cycles = run.find("sim_cycles");
            const JsonValue *host = run.find("host_seconds");
            if (!suite || !cycles || !host)
                continue;
            auto &[c, s] = by_suite[suite->asString()];
            c += cycles->asDouble();
            s += host->asDouble();
        }
    } catch (const std::exception &) {
        by_suite.clear();
    }
    return by_suite;
}

int
listSuites(const std::string &throughput_path)
{
    const auto throughput = loadThroughput(throughput_path);
    std::printf("%-14s %-5s %-14s %s\n", "suite", "runs",
                "cycles/host-s", "title");
    SuiteOptions opts;
    for (const Suite *s : allSuites()) {
        std::string tput = "-";
        auto it = throughput.find(s->name);
        if (it != throughput.end() && it->second.second > 0) {
            tput = format("%.3g",
                          it->second.first / it->second.second);
        }
        std::printf("%-14s %-5zu %-14s %s\n", s->name.c_str(),
                    s->specs(opts).size(), tput.c_str(),
                    s->title.c_str());
    }
    if (throughput.empty()) {
        std::printf("\n(no throughput data at %s — run a sweep with "
                    "--throughput %s first)\n",
                    throughput_path.c_str(), throughput_path.c_str());
    }
    return 0;
}

int
diffArtifacts(const std::string &path_a, const std::string &path_b)
{
    auto slurp = [](const std::string &path, std::string *out) {
        std::ifstream in(path);
        if (!in)
            return false;
        std::ostringstream ss;
        ss << in.rdbuf();
        *out = ss.str();
        return true;
    };
    std::string a, b;
    if (!slurp(path_a, &a) || !slurp(path_b, &b)) {
        std::fprintf(stderr, "cannot read %s\n",
                     a.empty() ? path_a.c_str() : path_b.c_str());
        return 2;
    }
    std::string why;
    if (artifactsEquivalent(a, b, &why)) {
        std::printf("equivalent (modulo wall-clock): %s == %s\n",
                    path_a.c_str(), path_b.c_str());
        return 0;
    }
    std::printf("DIFFER: %s\n", why.c_str());
    return 1;
}

/**
 * Throughput ratchet: compare this sweep's aggregate
 * cycles_per_host_second against an archived baseline, over the run
 * ids present in both (so adding or filtering suites cannot skew the
 * ratio). Returns true when the sweep is no more than 10% below the
 * baseline — or when no baseline/common runs exist (bootstrap).
 */
bool
ratchetCheck(const std::string &baseline_path,
             const std::vector<RunOutcome> &outcomes)
{
    std::ifstream in(baseline_path);
    if (!in) {
        std::printf("ratchet: no baseline at %s (bootstrap pass)\n",
                    baseline_path.c_str());
        return true;
    }
    std::ostringstream ss;
    ss << in.rdbuf();

    // Baseline per-run throughput, keyed by run id.
    std::map<std::string, std::pair<double, double>> base;
    try {
        const JsonValue v = JsonValue::parse(ss.str());
        const JsonValue *runs = v.find("runs");
        if (runs) {
            for (const JsonValue &run : runs->items()) {
                const JsonValue *id = run.find("id");
                const JsonValue *cycles = run.find("sim_cycles");
                const JsonValue *host = run.find("host_seconds");
                if (id && cycles && host)
                    base[id->asString()] = {cycles->asDouble(),
                                            host->asDouble()};
            }
        }
    } catch (const std::exception &e) {
        std::printf("ratchet: unreadable baseline %s (%s) — "
                    "bootstrap pass\n",
                    baseline_path.c_str(), e.what());
        return true;
    }

    double base_cycles = 0, base_seconds = 0;
    double new_cycles = 0, new_seconds = 0;
    std::size_t common = 0;
    for (const RunOutcome &out : outcomes) {
        if (!out.ok || out.wallSeconds <= 0)
            continue;
        const auto it = base.find(out.id);
        if (it == base.end())
            continue;
        ++common;
        base_cycles += it->second.first;
        base_seconds += it->second.second;
        new_cycles += double(std::uint64_t(out.result.cycles));
        new_seconds += out.wallSeconds;
    }
    if (common == 0 || base_seconds <= 0 || new_seconds <= 0) {
        std::printf("ratchet: no comparable runs vs %s "
                    "(bootstrap pass)\n",
                    baseline_path.c_str());
        return true;
    }

    const double base_rate = base_cycles / base_seconds;
    const double new_rate = new_cycles / new_seconds;
    const double floor = 0.9 * base_rate;
    std::printf("ratchet: %.3g cycles/host-s over %zu common run(s); "
                "baseline %.3g (floor %.3g) -> %s\n",
                new_rate, common, base_rate, floor,
                new_rate >= floor ? "PASS" : "REGRESSION");
    return new_rate >= floor;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ExperimentEngine::Options engine_opts;
    SuiteOptions suite_opts;
    std::string json_path;
    std::string throughput_path;
    std::string ratchet_path;
    std::string filter;
    std::size_t trace_events = 0;
    bool do_list = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--list") {
            // Deferred until all flags are parsed, so a later
            // --throughput PATH can point the column at an archive.
            do_list = true;
        } else if (arg == "--diff") {
            if (i + 2 >= argc) {
                std::fprintf(stderr, "--diff needs two paths\n");
                return 2;
            }
            return diffArtifacts(argv[i + 1], argv[i + 2]);
        } else if (arg == "--filter" || arg == "-f") {
            filter = next();
        } else if (arg == "--jobs" || arg == "-j") {
            engine_opts.jobs = parseCount(arg, next(), 1u);
        } else if (arg == "--ratchet") {
            ratchet_path = next();
        } else if (arg == "--smoke") {
            suite_opts.smoke = true;
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--throughput") {
            throughput_path = next();
        } else if (arg == "--trace") {
            trace_events = parseCount(arg, next(), std::size_t(0));
        } else if (arg == "--progress") {
            engine_opts.echoProgress = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--list] [--filter s1,s2] [--jobs N] "
                "[--smoke] [--json PATH] "
                "[--throughput PATH] [--ratchet BASELINE.json] "
                "[--trace N] [--progress]\n"
                "       %s --diff A.json B.json\n",
                argv[0], argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s (try --help)\n",
                         arg.c_str());
            return 2;
        }
    }

    if (do_list) {
        return listSuites(throughput_path.empty()
                              ? "BENCH_throughput.json"
                              : throughput_path);
    }

    // Gather the selected runs of every suite into one batch; remember
    // each suite's slice so its report sees exactly its outcomes.
    struct Slice
    {
        const Suite *suite;
        std::size_t begin, end;
    };
    std::vector<RunSpec> batch;
    std::vector<Slice> slices;
    for (const Suite *suite : allSuites()) {
        std::vector<RunSpec> specs = suite->specs(suite_opts);
        const bool suite_match =
            ExperimentEngine::matchesFilter(suite->name, filter);
        const std::size_t begin = batch.size();
        std::size_t kept = 0;
        for (RunSpec &spec : specs) {
            if (!suite_match &&
                !ExperimentEngine::matchesFilter(spec.id, filter))
                continue;
            spec.traceEvents = trace_events;
            batch.push_back(std::move(spec));
            ++kept;
        }
        // A suite with no engine runs of its own (table2) still
        // participates when its name matches the filter.
        if (kept > 0 || (suite_match && specs.empty()))
            slices.push_back({suite, begin, batch.size()});
    }

    if (batch.empty() && slices.empty()) {
        std::fprintf(stderr, "filter '%s' selects nothing "
                             "(try --list)\n",
                     filter.c_str());
        return 2;
    }

    std::printf("vic_bench: %zu run(s) across %zu suite(s), "
                "--jobs %u%s\n\n",
                batch.size(), slices.size(), engine_opts.jobs,
                suite_opts.smoke ? ", --smoke" : "");

    const auto t0 = std::chrono::steady_clock::now();
    ExperimentEngine engine;
    std::vector<RunOutcome> outcomes = engine.run(batch, engine_opts);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // Per-suite reports over their slices. Partial slices (id-level
    // filters) skip the report — its indexing assumes the full spec
    // list — but still gate on clean runs.
    bool ok = outcomesClean(outcomes);
    for (const Slice &slice : slices) {
        suiteBanner(*slice.suite);
        const std::vector<RunOutcome> mine(
            outcomes.begin() + slice.begin,
            outcomes.begin() + slice.end);
        const bool full =
            mine.size() == slice.suite->specs(suite_opts).size();
        bool suite_ok = true;
        if (slice.suite->report && full && outcomesClean(mine))
            suite_ok = slice.suite->report(suite_opts, mine);
        else if (slice.suite->report && !full)
            std::printf("(report skipped: filter selected %zu of the "
                        "suite's runs)\n",
                        mine.size());
        if (slice.suite->validate)
            suite_ok = slice.suite->validate(suite_opts) && suite_ok;
        ok = suite_ok && ok;
        std::printf("\n");
    }

    std::printf("sweep: %zu run(s) in %.2f s host time -> %s\n",
                outcomes.size(), wall, ok ? "OK" : "FAILED");

    if (!json_path.empty()) {
        ArtifactMeta meta;
        meta.jobs = engine_opts.jobs;
        meta.smoke = suite_opts.smoke;
        meta.filter = filter;
        meta.wallSeconds = wall;
        if (!writeArtifactFile(json_path, meta, outcomes)) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 2;
        }
        std::printf("wrote artifact: %s\n", json_path.c_str());
    }
    // The ratchet gates BEFORE the throughput archive is refreshed: a
    // regressing sweep must not overwrite the baseline it failed
    // against.
    if (!ratchet_path.empty() && !ratchetCheck(ratchet_path, outcomes))
        return 1;
    if (!throughput_path.empty()) {
        ArtifactMeta meta;
        meta.jobs = engine_opts.jobs;
        meta.smoke = suite_opts.smoke;
        meta.filter = filter;
        meta.wallSeconds = wall;
        if (!writeThroughputFile(throughput_path, meta, outcomes)) {
            std::fprintf(stderr, "cannot write %s\n",
                         throughput_path.c_str());
            return 2;
        }
        std::printf("wrote throughput: %s\n", throughput_path.c_str());
    }
    return ok ? 0 : 1;
}
