/**
 * @file
 * The static analyzer, tested two ways:
 *
 *  - FIXTURES: each pass runs over a seeded mini-tree under
 *    tests/lint_fixtures/ and must catch its planted violation with
 *    the right rule id at the right line;
 *  - CLEAN TREE: the real repo (VIC_LINT_SOURCE_ROOT) must produce
 *    zero diagnostics, and every inline suppression must be both
 *    documented and in use.
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

TEST(LintFixtures, AddrKindMixedAndRewrap)
{
    const LintReport r =
        runLint(fixtureRoot("addrkind"), {"addr-kind"});
    const std::string f = "src/cache/mix.cc";
    // pickBits's raw parameter sees va-bits (via probeVirt) and
    // pa-bits (via probePhys): one washed-out channel.
    EXPECT_TRUE(hasDiag(r, "addr-kind-mixed", f, 16));
    // launder re-wraps untranslated virtual bits as PhysAddr.
    EXPECT_TRUE(hasDiag(r, "addr-kind-rewrap", f, 36));
    // translate composes with a frame base (real arithmetic) and
    // must stay silent: exactly the two diagnostics.
    EXPECT_EQ(r.diagnostics.size(), 2u);
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

TEST(LintFixtures, SuppressionHygiene)
{
    const LintReport r =
        runLint(fixtureRoot("suppression"), {"determinism"});
    const std::string f = "src/mc/sup.cc";

    // The documented allow() on line 9 silences line 10's
    // det-unordered and is marked used.
    EXPECT_FALSE(hasDiag(r, "det-unordered", f, 10));
    bool found_used = false;
    for (const Suppression &s : r.suppressions)
        found_used |= s.file == f && s.commentLine == 9 && s.used;
    EXPECT_TRUE(found_used);

    // The reason-less allow() on line 12 is itself a diagnostic and
    // suppresses nothing: line 13 still fires.
    EXPECT_TRUE(hasDiag(r, "suppress-undocumented", f, 12));
    EXPECT_TRUE(hasDiag(r, "det-unordered", f, 13));

    // The allow() on line 15 matches no diagnostic.
    EXPECT_TRUE(hasDiag(r, "suppress-unused", f, 15));
}

// ---------------------------------------------------------------------
// The real tree: clean, with a fully documented suppression inventory
// ---------------------------------------------------------------------

TEST(LintCleanTree, ZeroDiagnosticsAllPasses)
{
    const LintReport r = runLint(VIC_LINT_SOURCE_ROOT, {});
    ASSERT_GT(r.filesScanned, 100u);  // sanity: found the real tree
    EXPECT_EQ(r.passesRun.size(), 3u);
    for (const Diagnostic &d : r.diagnostics)
        ADD_FAILURE() << d.render();
    // Every inline suppression carries a reason and silences a real
    // diagnostic (unused/undocumented ones would be diagnostics). The
    // inventory is the one polymorphic addr-kind channel.
    EXPECT_EQ(r.suppressions.size(), 1u);
    for (const Suppression &s : r.suppressions) {
        EXPECT_EQ(s.rule, "addr-kind-mixed");
        EXPECT_TRUE(s.used) << s.file << ":" << s.commentLine;
        EXPECT_FALSE(s.reason.empty())
            << s.file << ":" << s.commentLine;
    }
    // The interprocedural pass did real whole-program work.
    bool saw_fixpoint = false;
    for (const PassRunStats &p : r.passStats) {
        if (p.pass == "addr-kind") {
            EXPECT_GT(p.stats.functionsAnalyzed, 100u);
            EXPECT_GT(p.stats.fixpointIterations, 0u);
            saw_fixpoint = true;
        }
    }
    EXPECT_TRUE(saw_fixpoint);
}

TEST(LintCleanTree, JsonReportShape)
{
    const LintReport r =
        runLint(VIC_LINT_SOURCE_ROOT, {"layering"});
    const JsonValue doc = r.toJson();
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(), "vic-lint-report-v2");
    EXPECT_TRUE(doc.find("clean")->asBool());
    EXPECT_EQ(doc.find("files_scanned")->asU64(), r.filesScanned);
    EXPECT_EQ(doc.find("diagnostics")->items().size(), 0u);
    // v2: one pass_stats entry per pass run.
    ASSERT_NE(doc.find("pass_stats"), nullptr);
    EXPECT_EQ(doc.find("pass_stats")->items().size(), 1u);
    EXPECT_EQ(doc.find("pass_stats")
                  ->items()[0]
                  .find("pass")
                  ->asString(),
              "layering");
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
        runLint(fixtureRoot("addrkind"), {"addr-kind"});
    const JsonValue doc = sarifReport(r);

    EXPECT_EQ(doc.find("version")->asString(), "2.1.0");
    ASSERT_NE(doc.find("runs"), nullptr);
    ASSERT_EQ(doc.find("runs")->items().size(), 1u);
    const JsonValue &run = doc.find("runs")->items()[0];

    const JsonValue &driver =
        *run.find("tool")->find("driver");
    EXPECT_EQ(driver.find("name")->asString(), "vic_lint");
    // Rules are sorted by id and cover the pass's families plus the
    // suppression-hygiene pair.
    const auto &rules = driver.find("rules")->items();
    ASSERT_GE(rules.size(), 4u);
    std::vector<std::string> ids;
    for (const JsonValue &rule : rules)
        ids.push_back(rule.find("id")->asString());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_NE(std::find(ids.begin(), ids.end(), "addr-kind-mixed"),
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
