#include "verify/mc_report.hh"

namespace vic::verify
{

JsonValue
raceJson(const mc::RaceReport &race)
{
    JsonValue j = JsonValue::object();
    j.set("a", JsonValue::str(race.labelA));
    j.set("b", JsonValue::str(race.labelB));
    j.set("line", JsonValue::number(race.line));
    j.set("benign", JsonValue::boolean(race.benign));
    j.set("weakWindow", JsonValue::boolean(race.weakWindow));
    return j;
}

namespace
{

JsonValue
labelsJson(const std::vector<std::string> &labels)
{
    JsonValue a = JsonValue::array();
    for (const std::string &l : labels)
        a.push(JsonValue::str(l));
    return a;
}

JsonValue
racesJson(const std::vector<mc::RaceReport> &races)
{
    JsonValue a = JsonValue::array();
    for (const mc::RaceReport &r : races)
        a.push(raceJson(r));
    return a;
}

} // namespace

JsonValue
scenarioResultJson(const mc::ScenarioResult &r, bool passed)
{
    JsonValue js = JsonValue::object();
    js.set("scenario", JsonValue::str(r.scenario));
    js.set("memoryOrder",
           JsonValue::str(mc::memoryOrderName(r.memoryOrder)));
    js.set("exhausted", JsonValue::boolean(r.exhausted));
    js.set("deadlock", JsonValue::boolean(r.deadlock));
    js.set("executions", JsonValue::number(r.executions));
    js.set("canonicalTraces", JsonValue::number(r.canonicalTraces));
    js.set("distinctEndStates",
           JsonValue::number(r.distinctEndStates));
    js.set("maxDepth", JsonValue::number(r.maxDepth));
    js.set("steps", JsonValue::number(r.steps));
    js.set("sleepPruned", JsonValue::number(r.sleepPruned));
    js.set("persistentPruned", JsonValue::number(r.persistentPruned));
    js.set("races", racesJson(r.races));
    js.set("benignRaces", JsonValue::number(r.benignRaces));
    js.set("reportedRaces", JsonValue::number(r.reportedRaces()));
    js.set("confirmedRaces", JsonValue::number(r.confirmedRaces));
    js.set("weakWindowRaces", JsonValue::number(r.weakWindowRaces));
    js.set("violatingRuns", JsonValue::number(r.violatingRuns));
    if (!r.minimalCounterexampleLabels.empty()) {
        js.set("minimalCounterexample",
               labelsJson(r.minimalCounterexampleLabels));
        js.set("replayConfirmed",
               JsonValue::boolean(r.replayConfirmed));
    }
    js.set("passed", JsonValue::boolean(passed));
    return js;
}

JsonValue
fuzzResultJson(const mc::FuzzResult &r, bool passed)
{
    JsonValue js = JsonValue::object();
    js.set("samples", JsonValue::number(r.samples));
    js.set("steps", JsonValue::number(r.steps));
    js.set("maxDepth", JsonValue::number(r.maxDepth));
    js.set("deadlockRuns", JsonValue::number(r.deadlockRuns));
    js.set("canonicalTraces", JsonValue::number(r.canonicalTraces));
    js.set("distinctEndStates",
           JsonValue::number(r.distinctEndStates));
    js.set("newTraces", JsonValue::number(r.newTraces));
    js.set("races", racesJson(r.races));
    js.set("benignRaces", JsonValue::number(r.benignRaces));
    js.set("reportedRaces", JsonValue::number(r.reportedRaces()));
    js.set("weakWindowRaces", JsonValue::number(r.weakWindowRaces));
    js.set("violatingRuns", JsonValue::number(r.violatingRuns));
    if (!r.minimalCounterexampleLabels.empty()) {
        js.set("minimalCounterexample",
               labelsJson(r.minimalCounterexampleLabels));
        js.set("replayConfirmed",
               JsonValue::boolean(r.replayConfirmed));
    }
    js.set("passed", JsonValue::boolean(passed));
    return js;
}

namespace
{

std::uint64_t
u64Or(const JsonValue &obj, const char *key, std::uint64_t fallback)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->kind() == JsonValue::Kind::Number
               ? v->asU64()
               : fallback;
}

bool
boolOr(const JsonValue &obj, const char *key, bool fallback)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->kind() == JsonValue::Kind::Bool
               ? v->asBool()
               : fallback;
}

std::string
strOr(const JsonValue &obj, const char *key, const char *fallback)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->kind() == JsonValue::Kind::String
               ? v->asString()
               : fallback;
}

McScenarioSummary
readScenario(const JsonValue &js)
{
    McScenarioSummary s;
    s.scenario = strOr(js, "scenario", "");
    s.memoryOrder = strOr(js, "memoryOrder", "");
    s.exhausted = boolOr(js, "exhausted", false);
    s.executions = u64Or(js, "executions", 0);
    s.canonicalTraces = u64Or(js, "canonicalTraces", 0);
    s.violatingRuns = u64Or(js, "violatingRuns", 0);
    s.weakWindowRaces = u64Or(js, "weakWindowRaces", 0);
    if (const JsonValue *races = js.find("races");
        races != nullptr && races->kind() == JsonValue::Kind::Array)
        s.races = races->items().size();
    s.benignRaces = u64Or(js, "benignRaces", 0);
    s.confirmedRaces = u64Or(js, "confirmedRaces", 0);
    s.reportedRaces = u64Or(js, "reportedRaces", 0);
    s.passed = boolOr(js, "passed", false);

    if (const JsonValue *fuzz = js.find("fuzz");
        fuzz != nullptr && fuzz->kind() == JsonValue::Kind::Object) {
        s.hasFuzz = true;
        s.fuzzSamples = u64Or(*fuzz, "samples", 0);
        s.fuzzTraces = u64Or(*fuzz, "canonicalTraces", 0);
        s.fuzzNewTraces = u64Or(*fuzz, "newTraces", 0);
        s.fuzzPassed = boolOr(*fuzz, "passed", false);
    }
    return s;
}

} // namespace

McReportSummary
readMcReport(const JsonValue &report)
{
    McReportSummary out;
    out.schema = strOr(report, "schema", "");
    out.recognised = out.schema == kVerifyReportSchemaV4;
    if (!out.recognised)
        return out;
    out.ok = boolOr(report, "ok", false);

    const JsonValue *policies = report.find("policies");
    if (policies == nullptr ||
        policies->kind() != JsonValue::Kind::Array)
        return out;
    for (const JsonValue &jp : policies->items()) {
        const JsonValue *interleave = jp.find("interleave");
        if (interleave == nullptr)
            continue;
        const JsonValue *scenarios = interleave->find("scenarios");
        if (scenarios == nullptr ||
            scenarios->kind() != JsonValue::Kind::Array)
            continue;
        for (const JsonValue &js : scenarios->items())
            out.scenarios.push_back(readScenario(js));
    }
    return out;
}

} // namespace vic::verify
