/**
 * @file
 * The static analyzer, tested two ways:
 *
 *  - FIXTURES: each pass runs over a seeded mini-tree under
 *    tests/lint_fixtures/ and must catch its planted violation with
 *    the right rule id at the right line;
 *  - CLEAN TREE: the real repo (VIC_LINT_SOURCE_ROOT) must produce
 *    zero diagnostics.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/linter.hh"
#include "analysis/sarif.hh"

namespace vic::analysis
{
namespace
{

std::string
fixtureRoot(const char *name)
{
    return std::string(VIC_LINT_FIXTURE_ROOT) + "/" + name;
}

/** True when the report holds a diagnostic with @p rule in @p file
 *  at @p line (0 = any line). */
bool
hasDiag(const LintReport &r, const std::string &rule,
        const std::string &file, std::uint32_t line = 0)
{
    for (const Diagnostic &d : r.diagnostics) {
        if (d.rule == rule && d.file == file &&
            (line == 0 || d.line == line))
            return true;
    }
    return false;
}

std::size_t
countRule(const LintReport &r, const std::string &rule)
{
    std::size_t n = 0;
    for (const Diagnostic &d : r.diagnostics)
        n += d.rule == rule ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// Fixtures: one planted violation per pass
// ---------------------------------------------------------------------

TEST(LintFixtures, DeterminismCatchesEveryRule)
{
    const LintReport r =
        runLint(fixtureRoot("determinism"), {"determinism"});
    const std::string f = "src/mc/bad_clock.cc";
    EXPECT_TRUE(hasDiag(r, "det-wallclock", f, 15));  // system_clock
    EXPECT_TRUE(hasDiag(r, "det-wallclock", f, 17));  // C time()
    EXPECT_TRUE(hasDiag(r, "det-entropy", f, 23));    // random_device
    EXPECT_TRUE(hasDiag(r, "det-entropy", f, 24));    // rand()
    EXPECT_TRUE(hasDiag(r, "det-std-random", f, 30)); // mt19937
    EXPECT_TRUE(hasDiag(r, "det-std-random", f, 31)); // distribution
    EXPECT_TRUE(hasDiag(r, "det-unordered", f, 35));  // unordered_map

    // Token-awareness: the comment on line 9 and the string literal
    // on line 10 mention banned names and must NOT be flagged.
    for (const Diagnostic &d : r.diagnostics) {
        EXPECT_NE(d.line, 9u) << d.render();
        EXPECT_NE(d.line, 10u) << d.render();
    }
    EXPECT_EQ(r.diagnostics.size(), 7u);
}

TEST(LintFixtures, LayeringCatchesUpwardInclude)
{
    const LintReport r =
        runLint(fixtureRoot("layering"), {"layering"});
    EXPECT_TRUE(
        hasDiag(r, "layer-cycle", "src/cache/bad_layer.cc", 5));
    // The legal downward include on line 4 must not be flagged.
    EXPECT_EQ(countRule(r, "layer-cycle"), 1u);
}

// ---------------------------------------------------------------------
// The real tree: clean
// ---------------------------------------------------------------------

TEST(LintCleanTree, ZeroDiagnosticsAllPasses)
{
    const LintReport r = runLint(VIC_LINT_SOURCE_ROOT, {});
    ASSERT_GT(r.filesScanned, 100u);  // sanity: found the real tree
    EXPECT_EQ(r.passesRun.size(), 2u);
    for (const Diagnostic &d : r.diagnostics)
        ADD_FAILURE() << d.render();
}

TEST(LintCleanTree, JsonReportShape)
{
    const LintReport r =
        runLint(VIC_LINT_SOURCE_ROOT, {"layering"});
    const JsonValue doc = r.toJson();
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(), "vic-lint-report-v3");
    EXPECT_TRUE(doc.find("clean")->asBool());
    EXPECT_EQ(doc.find("files_scanned")->asU64(), r.filesScanned);
    ASSERT_EQ(doc.find("passes")->items().size(), 1u);
    EXPECT_EQ(doc.find("passes")->items()[0].asString(), "layering");
    EXPECT_EQ(doc.find("diagnostics")->items().size(), 0u);
    EXPECT_EQ(doc.find("pass_stats"), nullptr);
    EXPECT_EQ(doc.find("suppressions"), nullptr);
    // Determinism: serialising twice is byte-identical.
    EXPECT_EQ(doc.dump(2), r.toJson().dump(2));
}

TEST(LintCleanTree, ByteIdenticalAcrossRuns)
{
    // The acceptance bar for every vic artifact: two independent
    // runs over the same tree serialise byte-identically — JSON and
    // SARIF both.
    const LintReport a = runLint(VIC_LINT_SOURCE_ROOT, {});
    const LintReport b = runLint(VIC_LINT_SOURCE_ROOT, {});
    EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
    EXPECT_EQ(sarifReport(a).dump(2), sarifReport(b).dump(2));
}

// ---------------------------------------------------------------------
// Report formats: SARIF shape
// ---------------------------------------------------------------------

TEST(LintReportFormats, SarifShape)
{
    const LintReport r =
        runLint(fixtureRoot("determinism"), {"determinism"});
    ASSERT_FALSE(r.diagnostics.empty());
    const JsonValue doc = sarifReport(r);

    EXPECT_EQ(doc.find("version")->asString(), "2.1.0");
    ASSERT_NE(doc.find("runs"), nullptr);
    ASSERT_EQ(doc.find("runs")->items().size(), 1u);
    const JsonValue &run = doc.find("runs")->items()[0];

    const JsonValue &driver =
        *run.find("tool")->find("driver");
    EXPECT_EQ(driver.find("name")->asString(), "vic_lint");
    // Rules are sorted by id and cover the pass's four families.
    const auto &rules = driver.find("rules")->items();
    ASSERT_EQ(rules.size(), 4u);
    std::vector<std::string> ids;
    for (const JsonValue &rule : rules)
        ids.push_back(rule.find("id")->asString());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_NE(std::find(ids.begin(), ids.end(), "det-wallclock"),
              ids.end());

    // One result per diagnostic, each with a physical location
    // under the SRCROOT base.
    const auto &results = run.find("results")->items();
    ASSERT_EQ(results.size(), r.diagnostics.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JsonValue &res = results[i];
        EXPECT_EQ(res.find("ruleId")->asString(),
                  r.diagnostics[i].rule);
        EXPECT_EQ(res.find("level")->asString(), "warning");
        const JsonValue &phys =
            *res.find("locations")->items()[0].find(
                "physicalLocation");
        EXPECT_EQ(phys.find("artifactLocation")
                      ->find("uri")
                      ->asString(),
                  r.diagnostics[i].file);
        EXPECT_EQ(phys.find("artifactLocation")
                      ->find("uriBaseId")
                      ->asString(),
                  "SRCROOT");
        EXPECT_EQ(phys.find("region")->find("startLine")->asU64(),
                  r.diagnostics[i].line);
    }
}

} // anonymous namespace
} // namespace vic::analysis
