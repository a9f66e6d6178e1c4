#include "experiment/json_artifact.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace vic
{

namespace
{

/** Write @p text to @p path; false on I/O error. */
bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // anonymous namespace

JsonValue
runResultToJson(const RunResult &r)
{
    JsonValue v = JsonValue::object();
    v.set("workload", JsonValue::str(r.workload));
    v.set("policy", JsonValue::str(r.policy));
    v.set("cycles", JsonValue::number(std::uint64_t(r.cycles)));
    v.set("seconds", JsonValue::number(r.seconds));

    JsonValue oracle = JsonValue::object();
    oracle.set("checked", JsonValue::number(r.oracleChecked));
    oracle.set("violations", JsonValue::number(r.oracleViolations));
    v.set("oracle", std::move(oracle));

    // RunResult::stats is an ordered map, so iteration is already the
    // sorted-by-name order the artifact requires.
    JsonValue stats = JsonValue::object();
    for (const auto &[name, value] : r.stats)
        stats.set(name, JsonValue::number(value));
    v.set("stats", std::move(stats));

    if (!r.traceTail.empty()) {
        JsonValue trace = JsonValue::array();
        for (const auto &line : r.traceTail)
            trace.push(JsonValue::str(line));
        v.set("trace", std::move(trace));
    }
    return v;
}

JsonValue
outcomeToJson(const RunOutcome &out)
{
    JsonValue v = JsonValue::object();
    v.set("id", JsonValue::str(out.id));
    v.set("suite", JsonValue::str(out.suite));
    v.set("workload", JsonValue::str(out.workload));
    v.set("policy", JsonValue::str(out.policy));
    v.set("seed", JsonValue::number(out.seed));
    v.set("replica", JsonValue::number(std::uint64_t(out.replica)));
    v.set("effective_seed", JsonValue::number(out.effectiveSeed));
    v.set("ok", JsonValue::boolean(out.ok));
    if (!out.ok)
        v.set("error", JsonValue::str(out.error));
    v.set("wall_seconds", JsonValue::number(out.wallSeconds));
    if (out.ok)
        v.set("result", runResultToJson(out.result));
    return v;
}

JsonValue
artifactToJson(const ArtifactMeta &meta,
               const std::vector<RunOutcome> &outcomes)
{
    JsonValue v = JsonValue::object();
    v.set("schema", JsonValue::str("vic-bench"));
    v.set("schema_version",
          JsonValue::number(std::int64_t(kBenchSchemaVersion)));
    v.set("jobs", JsonValue::number(std::uint64_t(meta.jobs)));
    v.set("filter", JsonValue::str(meta.filter));
    v.set("wall_seconds", JsonValue::number(meta.wallSeconds));
    JsonValue runs = JsonValue::array();
    for (const auto &out : outcomes)
        runs.push(outcomeToJson(out));
    v.set("runs", std::move(runs));
    return v;
}

std::string
renderArtifact(const ArtifactMeta &meta,
               const std::vector<RunOutcome> &outcomes)
{
    return artifactToJson(meta, outcomes).dump(2);
}

bool
writeArtifactFile(const std::string &path, const ArtifactMeta &meta,
                  const std::vector<RunOutcome> &outcomes)
{
    return writeTextFile(path, renderArtifact(meta, outcomes));
}

void
stripWallClock(JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Object:
        for (auto &[key, member] : v.members()) {
            if (key == "wall_seconds")
                member = JsonValue::number(std::uint64_t(0));
            else
                stripWallClock(member);
        }
        break;
      case JsonValue::Kind::Array:
        for (auto &item : v.items())
            stripWallClock(item);
        break;
      default:
        break;
    }
}

namespace
{

/** First path at which two canonicalised values differ. */
std::string
firstDifference(const JsonValue &a, const JsonValue &b,
                const std::string &path)
{
    if (a.kind() != b.kind())
        return path + ": kind differs";
    switch (a.kind()) {
      case JsonValue::Kind::Object: {
          const auto &am = a.members();
          const auto &bm = b.members();
          for (std::size_t i = 0; i < std::min(am.size(), bm.size());
               ++i) {
              if (am[i].first != bm[i].first)
                  return format("%s: key %zu is \"%s\" vs \"%s\"",
                                path.c_str(), i, am[i].first.c_str(),
                                bm[i].first.c_str());
              std::string d =
                  firstDifference(am[i].second, bm[i].second,
                                  path + "." + am[i].first);
              if (!d.empty())
                  return d;
          }
          if (am.size() != bm.size())
              return format("%s: %zu vs %zu members", path.c_str(),
                            am.size(), bm.size());
          return "";
      }
      case JsonValue::Kind::Array: {
          const auto &ai = a.items();
          const auto &bi = b.items();
          for (std::size_t i = 0; i < std::min(ai.size(), bi.size());
               ++i) {
              std::string d = firstDifference(
                  ai[i], bi[i], format("%s[%zu]", path.c_str(), i));
              if (!d.empty())
                  return d;
          }
          if (ai.size() != bi.size())
              return format("%s: %zu vs %zu items", path.c_str(),
                            ai.size(), bi.size());
          return "";
      }
      default:
        if (!(a == b))
            return path + ": value differs";
        return "";
    }
}

} // anonymous namespace

bool
artifactsEquivalent(const std::string &a_text,
                    const std::string &b_text, std::string *why)
{
    JsonValue a, b;
    try {
        a = JsonValue::parse(a_text);
        b = JsonValue::parse(b_text);
    } catch (const std::exception &e) {
        if (why)
            *why = e.what();
        return false;
    }
    // The batch header legitimately differs in "jobs" (which may not
    // change results); everything else outside wall-clock must agree.
    stripWallClock(a);
    stripWallClock(b);
    for (JsonValue *v : {&a, &b}) {
        if (v->kind() != JsonValue::Kind::Object)
            continue;
        if (auto *jobs = v->find("jobs"))
            *jobs = JsonValue::number(std::uint64_t(0));
    }

    const std::string diff = firstDifference(a, b, "$");
    if (diff.empty())
        return true;
    if (why)
        *why = diff;
    return false;
}

} // namespace vic
