/**
 * @file
 * vic_lint — the repo's static analyzer.
 *
 *   vic_lint [--root DIR] [--pass NAME]... [--json FILE]
 *            [--sarif FILE] [--list-rules]
 *
 * Runs the two invariant passes (determinism, layering) over the tree
 * at --root (default: the current directory), prints one
 * "file:line:col: rule: message" line per diagnostic, and optionally
 * writes the deterministic "vic-lint-report-v3" JSON artifact and/or
 * a SARIF 2.1.0 document for CI annotators.
 *
 * Exit status: 0 clean, 1 diagnostics found, 2 usage/IO error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/linter.hh"
#include "analysis/sarif.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--pass NAME]... [--json FILE]\n"
        "          [--sarif FILE]\n"
        "       %s --list-rules\n"
        "\n"
        "Passes (default: all):\n",
        argv0, argv0);
    for (const auto &pass : vic::analysis::makeAllPasses())
        std::fprintf(stderr, "  %-12s %s\n", pass->name(),
                     pass->summary());
    return 2;
}

int
listRules()
{
    for (const auto &pass : vic::analysis::makeAllPasses()) {
        std::printf("%s: %s\n", pass->name(), pass->summary());
        for (const vic::analysis::RuleInfo &r : pass->rules())
            std::printf("  %-20s %s\n", r.id, r.summary);
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string json_path;
    std::string sarif_path;
    std::vector<std::string> passes;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (std::strcmp(arg, "--root") == 0) {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            root = v;
        } else if (std::strcmp(arg, "--pass") == 0) {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            passes.push_back(v);
        } else if (std::strcmp(arg, "--json") == 0) {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            json_path = v;
        } else if (std::strcmp(arg, "--sarif") == 0) {
            const char *v = value();
            if (v == nullptr)
                return usage(argv[0]);
            sarif_path = v;
        } else if (std::strcmp(arg, "--list-rules") == 0) {
            return listRules();
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], arg);
            return usage(argv[0]);
        }
    }

    // Validate --pass names against the registry up front.
    for (const std::string &p : passes) {
        bool known = false;
        for (const auto &pass : vic::analysis::makeAllPasses())
            known = known || p == pass->name();
        if (!known) {
            std::fprintf(stderr, "%s: unknown pass '%s'\n", argv[0],
                         p.c_str());
            return usage(argv[0]);
        }
    }

    vic::analysis::LintReport report;
    try {
        report = vic::analysis::runLint(root, passes);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
    if (report.filesScanned == 0) {
        std::fprintf(stderr,
                     "%s: no .cc/.hh files under '%s' — wrong "
                     "--root?\n",
                     argv[0], root.c_str());
        return 2;
    }

    for (const std::string &line : report.renderLines())
        std::printf("%s\n", line.c_str());

    if (!json_path.empty()) {
        std::ofstream out(json_path,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                         json_path.c_str());
            return 2;
        }
        out << report.toJson().dump(2) << '\n';
    }

    if (!sarif_path.empty()) {
        std::ofstream out(sarif_path,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                         sarif_path.c_str());
            return 2;
        }
        out << vic::analysis::sarifReport(report).dump(2) << '\n';
    }

    std::fprintf(stderr,
                 "vic_lint: %zu file(s), %zu pass(es), %zu "
                 "diagnostic(s)\n",
                 report.filesScanned, report.passesRun.size(),
                 report.diagnostics.size());
    return report.clean() ? 0 : 1;
}
