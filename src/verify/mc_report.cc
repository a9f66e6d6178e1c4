#include "verify/mc_report.hh"

namespace vic::verify
{

namespace
{

/** One race pair as a v4 JSON object. */
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

} // namespace vic::verify
