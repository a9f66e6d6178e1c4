/**
 * @file
 * Interleave/fuzz report schema: vic-verify-report-v4.
 *
 * Builders turn mc exploration and fuzzing results into the JSON
 * shape verify_policy embeds per scenario, and a reader summarises a
 * whole report back out of JSON. Each scenario entry carries its
 * "memoryOrder" ("sc" / "weak"), the race pairs (each classed benign
 * and/or "weakWindow") with per-class counters, an explicit
 * "reportedRaces" (non-benign pairs — the number the pass/fail
 * verdict is about), and an optional "fuzz" object with coverage
 * counters (samples, distinct traces, traces not seen by the
 * exhaustive pass). The reader accepts v4 only; nothing writes the
 * older schemas.
 */

#ifndef VIC_VERIFY_MC_REPORT_HH
#define VIC_VERIFY_MC_REPORT_HH

#include <string>
#include <vector>

#include "common/json_writer.hh"
#include "mc/explorer.hh"

namespace vic::verify
{

/** Schema tag verify_policy writes. */
inline constexpr const char *kVerifyReportSchemaV4 =
    "vic-verify-report-v4";

/** One race pair as a v4 JSON object. */
JsonValue raceJson(const mc::RaceReport &race);

/** One explored scenario as a v4 JSON object (the per-scenario entry
 *  of the "interleave.scenarios" array). */
JsonValue scenarioResultJson(const mc::ScenarioResult &result,
                             bool passed);

/** One fuzzing pass as a v4 JSON object (the scenario's "fuzz"
 *  member). */
JsonValue fuzzResultJson(const mc::FuzzResult &result, bool passed);

// --- reader ------------------------------------------------------------

/** Summary of one scenario entry read back from a report. */
struct McScenarioSummary
{
    std::string scenario;
    std::string memoryOrder;
    bool exhausted = false;
    std::uint64_t executions = 0;
    std::uint64_t canonicalTraces = 0;
    std::uint64_t violatingRuns = 0;
    std::uint64_t weakWindowRaces = 0;
    std::size_t races = 0;             ///< all pairs, benign included
    std::uint64_t benignRaces = 0;
    std::uint64_t confirmedRaces = 0;
    std::uint64_t reportedRaces = 0;   ///< non-benign pairs
    bool passed = false;

    bool hasFuzz = false; ///< a "fuzz" member was present
    std::uint64_t fuzzSamples = 0;
    std::uint64_t fuzzTraces = 0;
    std::uint64_t fuzzNewTraces = 0;
    bool fuzzPassed = false;
};

/** Summary of a whole verify report's interleave sections. */
struct McReportSummary
{
    std::string schema;
    bool recognised = false; ///< schema is v4
    bool ok = false;         ///< the report's top-level verdict
    std::vector<McScenarioSummary> scenarios; ///< across all policies
};

/** Read a v4 verify report (parsed JSON document). Any other schema
 *  yields recognised=false and nothing else. */
McReportSummary readMcReport(const JsonValue &report);

} // namespace vic::verify

#endif // VIC_VERIFY_MC_REPORT_HH
