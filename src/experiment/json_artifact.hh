/**
 * @file
 * Versioned JSON bench artifact.
 *
 * One artifact captures one engine batch: per-run counters, cycles,
 * oracle verdicts and wall-clock, under a schema-version field so CI
 * can diff perf trajectories across commits without guessing the
 * layout. Every field except the "wall_seconds" keys is a pure
 * function of the spec list, which is what the serial-vs-parallel
 * determinism guarantee (and artifactsEquivalent) is built on.
 *
 * Schema (version 1):
 *
 *   {
 *     "schema": "vic-bench",
 *     "schema_version": 1,
 *     "jobs": N, "filter": "...",
 *     "wall_seconds": f,              // whole-batch host time
 *     "runs": [ { <run entry> }, ... ]   // in spec order
 *   }
 *
 * Run entry: id, suite, workload, policy, seed, replica,
 * effective_seed, ok, error, wall_seconds, and on success the full
 * RunResult: cycles, seconds (= cycles / 50 MHz), oracle {checked,
 * violations}, stats (name -> counter, sorted by name) and trace
 * (when tracing was requested).
 */

#ifndef VIC_EXPERIMENT_JSON_ARTIFACT_HH
#define VIC_EXPERIMENT_JSON_ARTIFACT_HH

#include <string>
#include <vector>

#include "common/json_writer.hh"
#include "experiment/run_spec.hh"

namespace vic
{

inline constexpr int kBenchSchemaVersion = 1;

/** Batch-level metadata recorded in the artifact header. */
struct ArtifactMeta
{
    unsigned jobs = 1;
    std::string filter;
    double wallSeconds = 0;
};

/** Serialise a RunResult (deterministic: stats sorted by name). */
JsonValue runResultToJson(const RunResult &r);

/** Serialise one run entry. */
JsonValue outcomeToJson(const RunOutcome &out);

/** Serialise a whole batch. */
JsonValue artifactToJson(const ArtifactMeta &meta,
                         const std::vector<RunOutcome> &outcomes);

/** artifactToJson + pretty dump. */
std::string renderArtifact(const ArtifactMeta &meta,
                           const std::vector<RunOutcome> &outcomes);

/** Write renderArtifact output to @p path; false on I/O error. */
bool writeArtifactFile(const std::string &path,
                       const ArtifactMeta &meta,
                       const std::vector<RunOutcome> &outcomes);

/** Zero every "wall_seconds" member, recursively, so two artifacts
 *  can be compared modulo host timing. */
void stripWallClock(JsonValue &v);

/**
 * Compare two artifact texts modulo wall-clock fields. Returns true
 * when equivalent; otherwise false with a human-readable reason in
 * @p why (when non-null).
 */
bool artifactsEquivalent(const std::string &a_text,
                         const std::string &b_text, std::string *why);

} // namespace vic

#endif // VIC_EXPERIMENT_JSON_ARTIFACT_HH
