#include "verify/mc_report.hh"

#include <optional>

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

/** The members both entries end with: the races, the violating runs
 *  and the counterexample, then the verdict. @p confirmedRaces (an
 *  explored scenario's, not a fuzzing pass's) follows reportedRaces. */
void
setRaceCensus(JsonValue &js, const mc::RunCensus &r,
              std::optional<std::uint64_t> confirmedRaces, bool passed)
{
    JsonValue races = JsonValue::array();
    for (const mc::RaceReport &race : r.races)
        races.push(raceJson(race));
    js.set("races", std::move(races));
    js.set("benignRaces", JsonValue::number(r.benignRaces));
    js.set("reportedRaces", JsonValue::number(r.reportedRaces()));
    if (confirmedRaces)
        js.set("confirmedRaces", JsonValue::number(*confirmedRaces));
    js.set("weakWindowRaces", JsonValue::number(r.weakWindowRaces));
    js.set("violatingRuns", JsonValue::number(r.violatingRuns));
    if (!r.minimalCounterexampleLabels.empty()) {
        JsonValue labels = JsonValue::array();
        for (const std::string &l : r.minimalCounterexampleLabels)
            labels.push(JsonValue::str(l));
        js.set("minimalCounterexample", std::move(labels));
        js.set("replayConfirmed",
               JsonValue::boolean(r.replayConfirmed));
    }
    js.set("passed", JsonValue::boolean(passed));
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
    setRaceCensus(js, r, r.confirmedRaces, passed);
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
    setRaceCensus(js, r, std::nullopt, passed);
    return js;
}

} // namespace vic::verify
