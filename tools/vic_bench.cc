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
 *   vic_bench [--list] [--filter s1,s2] [--jobs N] [--json PATH]
 *             [--trace N]
 *   vic_bench --diff A.json B.json
 *
 * --filter takes comma-separated substrings matched against suite
 * names and run ids (a suite is swept when its name matches, or run
 * by run when individual ids match). Every suite runs at its
 * calibrated scale. Exit status: 0 when every selected run completed
 * without oracle violations and every shape check passed. --jobs
 * (>= 1) and --trace (>= 0) take whole decimal numbers; anything else
 * exits 2.
 *
 * --diff exits 0 when the two artifacts are equivalent modulo
 * wall-clock, 1 when they differ, and 2 when either file cannot be
 * read, does not parse, or is not a vic-bench artifact of the current
 * schema version.
 *
 * Host throughput is measured by the repository benchmark
 * (perfbench/), not here.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/suites.hh"
#include "common/cli.hh"
#include "common/logging.hh"

namespace
{

using namespace vic;
using namespace vic::bench;

int
listSuites()
{
    std::printf("%-14s %-5s %s\n", "suite", "runs", "title");
    for (const Suite *s : allSuites()) {
        std::printf("%-14s %-5zu %s\n", s->name.c_str(),
                    s->specs().size(), s->title.c_str());
    }
    return 0;
}

/** Read @p path into @p text. Returns why it is not a vic-bench
 *  artifact of the current schema version, or "" when it is. */
std::string
readArtifact(const std::string &path, std::string *text)
{
    std::ifstream in(path);
    if (!in)
        return "cannot read the file";
    std::ostringstream ss;
    ss << in.rdbuf();
    *text = ss.str();
    JsonValue v;
    try {
        v = JsonValue::parse(*text);
    } catch (const std::exception &e) {
        return format("not JSON (%s)", e.what());
    }
    const JsonValue *schema = v.find("schema");
    const JsonValue *version = v.find("schema_version");
    if (schema == nullptr || schema->kind() != JsonValue::Kind::String ||
        schema->asString() != "vic-bench")
        return "not a vic-bench artifact (no \"schema\": \"vic-bench\")";
    if (version == nullptr ||
        version->kind() != JsonValue::Kind::Number ||
        version->asI64() != kBenchSchemaVersion)
        return format("not schema_version %d", kBenchSchemaVersion);
    return "";
}

int
diffArtifacts(const std::string &path_a, const std::string &path_b)
{
    auto load = [](const std::string &path, std::string *text) {
        const std::string problem = readArtifact(path, text);
        if (!problem.empty())
            std::fprintf(stderr, "--diff %s: %s\n", path.c_str(),
                         problem.c_str());
        return problem.empty();
    };
    std::string a, b;
    if (!load(path_a, &a) || !load(path_b, &b))
        return 2;
    std::string why;
    if (artifactsEquivalent(a, b, &why)) {
        std::printf("equivalent (modulo wall-clock): %s == %s\n",
                    path_a.c_str(), path_b.c_str());
        return 0;
    }
    std::printf("DIFFER: %s\n", why.c_str());
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 1;
    std::string json_path;
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
            jobs = parseCount(arg, next(), 1u);
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--trace") {
            trace_events = parseCount(arg, next(), std::size_t(0));
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--list] [--filter s1,s2] [--jobs N] "
                "[--json PATH] [--trace N]\n"
                "       %s --diff A.json B.json\n",
                argv[0], argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s (try --help)\n",
                         arg.c_str());
            return 2;
        }
    }

    if (do_list)
        return listSuites();

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
        std::vector<RunSpec> specs = suite->specs();
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
                "--jobs %u\n\n",
                batch.size(), slices.size(), jobs);

    const auto t0 = std::chrono::steady_clock::now();
    ExperimentEngine engine;
    std::vector<RunOutcome> outcomes = engine.run(batch, jobs);
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
        const bool full = mine.size() == slice.suite->specs().size();
        bool suite_ok = true;
        if (slice.suite->report && full && outcomesClean(mine))
            suite_ok = slice.suite->report(mine);
        else if (slice.suite->report && !full)
            std::printf("(report skipped: filter selected %zu of the "
                        "suite's runs)\n",
                        mine.size());
        if (slice.suite->validate)
            suite_ok = slice.suite->validate() && suite_ok;
        ok = suite_ok && ok;
        std::printf("\n");
    }

    std::printf("sweep: %zu run(s) in %.2f s host time -> %s\n",
                outcomes.size(), wall, ok ? "OK" : "FAILED");

    if (!json_path.empty()) {
        ArtifactMeta meta;
        meta.jobs = jobs;
        meta.filter = filter;
        meta.wallSeconds = wall;
        if (!writeArtifactFile(json_path, meta, outcomes)) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 2;
        }
        std::printf("wrote artifact: %s\n", json_path.c_str());
    }
    return ok ? 0 : 1;
}
