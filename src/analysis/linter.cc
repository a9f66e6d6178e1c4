#include "analysis/linter.hh"

namespace vic::analysis
{

std::vector<std::unique_ptr<Pass>>
makeAllPasses()
{
    std::vector<std::unique_ptr<Pass>> passes;
    passes.push_back(makeDeterminismPass());
    passes.push_back(makeLayeringPass());
    return passes;
}

JsonValue
LintReport::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::str("vic-lint-report-v3"));
    doc.set("root", JsonValue::str(root));

    JsonValue passes = JsonValue::array();
    for (const std::string &p : passesRun)
        passes.push(JsonValue::str(p));
    doc.set("passes", std::move(passes));

    doc.set("files_scanned",
            JsonValue::number(std::uint64_t(filesScanned)));
    doc.set("clean", JsonValue::boolean(clean()));

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
runLint(const std::string &root,
        const std::vector<std::string> &pass_names)
{
    const std::vector<SourceFile> files = loadTree(root);
    LintReport report;
    report.root = normalizeRoot(root);
    report.filesScanned = files.size();

    Sink sink;
    for (const auto &pass : makeAllPasses()) {
        bool selected = pass_names.empty();
        for (const std::string &n : pass_names)
            selected = selected || n == pass->name();
        if (!selected)
            continue;
        report.passesRun.push_back(pass->name());
        for (const RuleInfo &r : pass->rules())
            report.activeRules.push_back({r.id, r.summary});
        pass->run(files, sink);
    }
    sink.finalize();
    report.diagnostics = sink.diagnostics();
    return report;
}

} // namespace vic::analysis
