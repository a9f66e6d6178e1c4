/**
 * @file
 * Interleave/fuzz report schema: vic-verify-report-v4.
 *
 * Builders turn mc exploration and fuzzing results into the JSON
 * shape verify_policy embeds per scenario. Each scenario entry carries
 * its "memoryOrder" ("sc" / "weak"), the race pairs (each classed
 * benign and/or "weakWindow") with per-class counters, an explicit
 * "reportedRaces" (non-benign pairs — the number the pass/fail verdict
 * is about), and an optional "fuzz" object with coverage counters
 * (samples, distinct traces, traces not seen by the exhaustive pass).
 * The report is an archived artifact for people and CI logs; nothing
 * in the tree reads it back.
 */

#ifndef VIC_VERIFY_MC_REPORT_HH
#define VIC_VERIFY_MC_REPORT_HH

#include "common/json_writer.hh"
#include "mc/explorer.hh"

namespace vic::verify
{

/** Schema tag verify_policy writes. */
inline constexpr const char *kVerifyReportSchemaV4 =
    "vic-verify-report-v4";

/** One explored scenario as a v4 JSON object (the per-scenario entry
 *  of the "interleave.scenarios" array). */
JsonValue scenarioResultJson(const mc::ScenarioResult &result,
                             bool passed);

/** One fuzzing pass as a v4 JSON object (the scenario's "fuzz"
 *  member). */
JsonValue fuzzResultJson(const mc::FuzzResult &result, bool passed);

} // namespace vic::verify

#endif // VIC_VERIFY_MC_REPORT_HH
