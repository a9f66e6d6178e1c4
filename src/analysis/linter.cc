#include "analysis/linter.hh"

namespace vic::analysis
{

std::vector<std::unique_ptr<Pass>>
makeAllPasses()
{
    std::vector<std::unique_ptr<Pass>> passes;
    passes.push_back(makeDeterminismPass());
    passes.push_back(makeAddrKindPass());
    passes.push_back(makeLayeringPass());
    return passes;
}

JsonValue
LintReport::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::str("vic-lint-report-v2"));
    doc.set("root", JsonValue::str(root));

    JsonValue passes = JsonValue::array();
    for (const std::string &p : passesRun)
        passes.push(JsonValue::str(p));
    doc.set("passes", std::move(passes));

    doc.set("files_scanned",
            JsonValue::number(std::uint64_t(filesScanned)));
    doc.set("clean", JsonValue::boolean(clean()));

    JsonValue pstats = JsonValue::array();
    for (const PassRunStats &p : passStats) {
        JsonValue j = JsonValue::object();
        j.set("pass", JsonValue::str(p.pass));
        j.set("functions_analyzed",
              JsonValue::number(p.stats.functionsAnalyzed));
        j.set("summaries_computed",
              JsonValue::number(p.stats.summariesComputed));
        j.set("fixpoint_iterations",
              JsonValue::number(p.stats.fixpointIterations));
        pstats.push(std::move(j));
    }
    doc.set("pass_stats", std::move(pstats));

    JsonValue diags = JsonValue::array();
    for (const Diagnostic &d : diagnostics) {
        JsonValue j = JsonValue::object();
        j.set("rule", JsonValue::str(d.rule));
        j.set("file", JsonValue::str(d.file));
        j.set("line", JsonValue::number(std::uint64_t(d.line)));
        j.set("col", JsonValue::number(std::uint64_t(d.col)));
        j.set("message", JsonValue::str(d.message));
        diags.push(std::move(j));
    }
    doc.set("diagnostics", std::move(diags));

    JsonValue sups = JsonValue::array();
    for (const Suppression &s : suppressions) {
        JsonValue j = JsonValue::object();
        j.set("rule", JsonValue::str(s.rule));
        j.set("file", JsonValue::str(s.file));
        j.set("line", JsonValue::number(std::uint64_t(s.commentLine)));
        j.set("reason", JsonValue::str(s.reason));
        j.set("used", JsonValue::boolean(s.used));
        sups.push(std::move(j));
    }
    doc.set("suppressions", std::move(sups));
    return doc;
}

std::vector<std::string>
LintReport::renderLines() const
{
    std::vector<std::string> lines;
    lines.reserve(diagnostics.size());
    for (const Diagnostic &d : diagnostics)
        lines.push_back(d.render());
    return lines;
}

LintReport
runLintOnFiles(const std::string &root, std::vector<SourceFile> files,
               const std::vector<std::string> &pass_names)
{
    LintReport report;
    report.root = normalizeRoot(root);
    report.filesScanned = files.size();

    Sink sink;
    sink.collectSuppressions(files);

    const PassContext ctx{report.root, files};

    std::vector<std::string> active_rules;
    for (const auto &pass : makeAllPasses()) {
        bool selected = pass_names.empty();
        for (const std::string &n : pass_names)
            selected = selected || n == pass->name();
        if (!selected)
            continue;
        report.passesRun.push_back(pass->name());
        for (const RuleInfo &r : pass->rules()) {
            active_rules.push_back(r.id);
            report.activeRules.push_back({r.id, r.summary});
        }
        PassStats stats;
        pass->run(ctx, sink, stats);
        report.passStats.push_back({pass->name(), stats});
    }
    report.activeRules.push_back(
        {kRuleSuppressUndocumented,
         "a vic-lint: allow() without a reason"});
    report.activeRules.push_back(
        {kRuleSuppressUnused,
         "a vic-lint: allow() that silences nothing"});

    sink.finalize(active_rules);
    report.diagnostics = sink.diagnostics();
    report.suppressions = sink.suppressions();
    return report;
}

LintReport
runLint(const std::string &root,
        const std::vector<std::string> &pass_names)
{
    return runLintOnFiles(root, loadTree(root), pass_names);
}

} // namespace vic::analysis
