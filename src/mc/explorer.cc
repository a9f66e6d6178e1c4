#include "mc/explorer.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "mc/executor.hh"

namespace vic::mc
{

namespace
{

/** Hard bound on schedule length (safety net). */
constexpr std::size_t kMaxSteps = 64;

struct Ctx
{
    const Scenario &scn;
    const ExploreOptions &opt;
    ScenarioResult res;
    Census census{scn, res};
    bool stop = false;
};

std::unique_ptr<Executor>
runPrefix(Ctx &c, const Schedule &prefix)
{
    auto ex = std::make_unique<Executor>(c.scn);
    for (int t : prefix) {
        ex->step(t);
        ++c.res.steps;
    }
    return ex;
}

/** Must step @p i precede step @p j (i earlier in the schedule)? */
bool
orderedSteps(const StepRecord &a, const StepRecord &b)
{
    if (a.thread == b.thread)
        return true;
    if (a.startedBeat == b.thread)
        return true; // fork: a transfer's start precedes its beats
    if (b.kind == OpKind::DmaWait &&
        std::find(b.joins.begin(), b.joins.end(), a.thread) !=
            b.joins.end())
        return true; // join: beats precede the wait
    return dependent(a.fp, b.fp);
}

/** Hash of the run's Mazurkiewicz trace: linearise the dependence
 *  graph picking the least-labelled ready step first, so equivalent
 *  schedules (differing only in commuting adjacent steps) hash
 *  identically and inequivalent ones do not. */
std::uint64_t
canonicalTraceHash(const std::vector<StepRecord> &hist)
{
    const std::size_t n = hist.size();
    std::vector<std::vector<std::size_t>> preds(n);
    std::vector<std::size_t> npred(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            if (orderedSteps(hist[i], hist[j])) {
                preds[j].push_back(i);
                ++npred[j];
            }
        }
    }

    std::uint64_t h = 1469598103934665603ull;
    auto mixByte = [&h](unsigned char b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    auto mixLabel = [&](const std::string &s) {
        for (char ch : s)
            mixByte(static_cast<unsigned char>(ch));
        mixByte(0);
    };

    std::vector<bool> emitted(n, false);
    std::vector<std::size_t> remaining = npred;
    std::vector<std::vector<std::size_t>> succs(n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i : preds[j])
            succs[i].push_back(j);

    for (std::size_t emitted_count = 0; emitted_count < n;
         ++emitted_count) {
        std::size_t best = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (emitted[i] || remaining[i] != 0)
                continue;
            if (best == n || hist[i].label < hist[best].label)
                best = i;
        }
        vic_assert(best < n, "cyclic step dependence");
        emitted[best] = true;
        mixLabel(hist[best].label);
        for (std::size_t j : succs[best])
            --remaining[j];
    }
    return h;
}

void
completeRun(Ctx &c, Executor &ex, const Schedule &prefix)
{
    if (c.res.executions >= c.opt.budget) {
        c.res.exhausted = false;
        c.stop = true;
        return;
    }
    ++c.res.executions;
    if (!ex.allFinished())
        c.res.deadlock = true;
    c.census.add(ex, prefix);
}

void
node(Ctx &c, std::unique_ptr<Executor> ex, const Schedule &prefix,
     std::set<int> sleep)
{
    if (c.stop)
        return;
    std::vector<int> enabledNow = ex->enabled();
    if (enabledNow.empty()) {
        completeRun(c, *ex, prefix);
        return;
    }
    if (prefix.size() >= kMaxSteps) {
        c.res.exhausted = false;
        return;
    }

    if (c.opt.persistentSets && enabledNow.size() > 1) {
        for (int t : enabledNow) {
            if (sleep.count(t))
                continue;
            const Footprint next = ex->peek(t);
            bool alone = true;
            for (int u = 0; u < ex->numThreads() && alone; ++u) {
                if (u == t)
                    continue;
                if (dependent(next, ex->remainingFootprint(u)))
                    alone = false;
            }
            if (alone) {
                c.res.persistentPruned += enabledNow.size() - 1;
                enabledNow = {t};
                break;
            }
        }
    }

    for (int t : enabledNow) {
        if (c.stop)
            return;
        if (c.opt.sleepSets && sleep.count(t)) {
            ++c.res.sleepPruned;
            continue;
        }

        std::unique_ptr<Executor> child = runPrefix(c, prefix);
        child->step(t);
        ++c.res.steps;
        const Footprint taken = child->history().back().fp;

        std::set<int> childSleep;
        for (int s : sleep) {
            if (!dependent(taken, ex->peek(s)))
                childSleep.insert(s);
        }

        Schedule childPrefix = prefix;
        childPrefix.push_back(t);
        node(c, std::move(child), childPrefix, std::move(childSleep));
        sleep.insert(t);
    }
}

} // namespace

Census::Census(const Scenario &scenario, RunCensus &result)
    : scn(scenario), out(result)
{
    out.scenario = scenario.name;
    out.policy = scenario.policy.name;
    out.memoryOrder = scenario.memoryOrder;
}

void
Census::add(Executor &ex, const Schedule &schedule)
{
    out.maxDepth = std::max<std::uint64_t>(out.maxDepth, schedule.size());
    canon.insert(canonicalTraceHash(ex.history()));
    out.canonicalTraces = canon.size();
    endStates.insert(ex.stateHash());
    out.distinctEndStates = endStates.size();

    for (RaceReport &r :
         detectRaces(ex.history(), ex.numThreads(),
                     CoherenceModel::of(scn.mparams))) {
        if (!raceKeys.insert(r.key()).second)
            continue;
        if (r.benign)
            ++out.benignRaces;
        if (r.weakWindow && !r.benign)
            ++out.weakWindowRaces;
        out.races.push_back(std::move(r));
    }

    if (ex.violationCount() == 0)
        return;
    ++out.violatingRuns;
    const int first = ex.firstViolationStep();
    vic_assert(first >= 0, "violations without a violating step");
    const std::size_t len = static_cast<std::size_t>(first) + 1;
    if (!out.minimalCounterexample.empty() &&
        len >= out.minimalCounterexample.size())
        return;
    out.minimalCounterexample.assign(
        schedule.begin(),
        schedule.begin() + static_cast<std::ptrdiff_t>(len));
    out.minimalCounterexampleLabels.clear();
    for (std::size_t i = 0; i < len; ++i)
        out.minimalCounterexampleLabels.push_back(
            ex.history()[i].label);
}

void
Census::confirm()
{
    if (out.minimalCounterexample.empty())
        return;
    Executor replay(scn);
    for (int t : out.minimalCounterexample)
        replay.step(t);
    out.replayConfirmed =
        replay.violationCount() > 0 &&
        replay.firstViolationStep() ==
            static_cast<int>(out.minimalCounterexample.size()) - 1;
}

bool
ScenarioResult::passed(const Expectation &expect) const
{
    if (!exhausted || deadlock)
        return false;
    if (expect.raceFree && reportedRaces() != 0)
        return false;
    if (expect.violationFree && violatingRuns != 0)
        return false;
    if (expect.wantConfirmedRace) {
        if (confirmedRaces == 0 || !replayConfirmed)
            return false;
        if (expect.maxCounterexample != 0 &&
            minimalCounterexample.size() > expect.maxCounterexample)
            return false;
    }
    if (expect.wantWeakWindow && weakWindowRaces == 0)
        return false;
    if (expect.wantBenignRace && benignRaces == 0)
        return false;
    return true;
}

bool
FuzzResult::passed(const Expectation &expect, bool exhausted) const
{
    if (expect.violationFree && violatingRuns != 0)
        return false;
    if (expect.raceFree && reportedRaces() != 0)
        return false;
    if (exhausted && newTraces != 0)
        return false;
    return minimalCounterexample.empty() || replayConfirmed;
}

ScenarioResult
explore(const Scenario &scenario, const ExploreOptions &options)
{
    Ctx c{scenario, options, {}};
    node(c, runPrefix(c, {}), {}, {});
    c.res.canonicalHashes = c.census.traceHashes();
    c.census.confirm();
    if (c.res.violatingRuns > 0)
        c.res.confirmedRaces = c.res.reportedRaces();
    return c.res;
}

std::vector<ScenarioResult>
exploreMany(const std::vector<Scenario> &scenarios,
            const ExploreOptions &options, unsigned jobs)
{
    std::vector<ScenarioResult> out(scenarios.size());
    parallelFor(scenarios.size(), jobs, [&](std::size_t i) {
        out[i] = explore(scenarios[i], options);
    });
    return out;
}

FuzzResult
fuzzSchedules(const Scenario &scenario, const FuzzOptions &options,
              std::size_t scenarioIndex,
              const std::vector<std::uint64_t> &knownTraces)
{
    FuzzResult res;
    Census census(scenario, res);
    // Keyed by catalog index, so the stream does not depend on which
    // worker fuzzes the scenario.
    Random rng(streamSeed(options.seed, scenarioIndex));

    for (; res.samples < options.samples; ++res.samples) {
        Executor ex(scenario);
        Schedule schedule;
        for (;;) {
            const std::vector<int> en = ex.enabled();
            if (en.empty() || schedule.size() >= kMaxSteps)
                break;
            const int t = en[static_cast<std::size_t>(
                rng.below(en.size()))];
            ex.step(t);
            schedule.push_back(t);
        }
        res.steps += schedule.size();
        if (!ex.allFinished())
            ++res.deadlockRuns;
        census.add(ex, schedule);
    }
    for (std::uint64_t trace : census.traceHashes())
        if (!std::binary_search(knownTraces.begin(), knownTraces.end(),
                                trace))
            ++res.newTraces;
    census.confirm();
    return res;
}

std::vector<FuzzResult>
fuzzMany(const std::vector<Scenario> &scenarios,
         const FuzzOptions &options,
         const std::vector<std::vector<std::uint64_t>> &knownTraces,
         unsigned jobs)
{
    static const std::vector<std::uint64_t> kNoBaseline;
    auto baseline = [&](std::size_t i) -> const std::vector<std::uint64_t> & {
        return i < knownTraces.size() ? knownTraces[i] : kNoBaseline;
    };

    std::vector<FuzzResult> out(scenarios.size());
    parallelFor(scenarios.size(), jobs, [&](std::size_t i) {
        out[i] = fuzzSchedules(scenarios[i], options, i, baseline(i));
    });
    return out;
}

} // namespace vic::mc
