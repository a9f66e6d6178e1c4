#include "mc/explorer.hh"

#include <algorithm>
#include <memory>
#include <set>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/random.hh"
#include "mc/executor.hh"

namespace vic::mc
{

namespace
{

struct Ctx
{
    const Scenario &scn;
    const ExploreOptions &opt;
    ScenarioResult res;
    std::set<std::string> raceKeys;
    std::set<std::uint64_t> canon;
    std::set<std::uint64_t> endStates;
    std::set<std::uint64_t> visited; ///< hashPrune only
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
    c.res.maxDepth = std::max<std::uint64_t>(c.res.maxDepth,
                                             prefix.size());
    if (!ex.allFinished())
        c.res.deadlock = true;

    c.canon.insert(canonicalTraceHash(ex.history()));
    c.res.canonicalTraces = c.canon.size();
    c.endStates.insert(ex.stateHash());
    c.res.distinctEndStates = c.endStates.size();

    for (RaceReport &r :
         detectRaces(ex.history(), ex.numThreads(),
                     CoherenceModel::of(c.scn.mparams))) {
        if (!c.raceKeys.insert(r.key()).second)
            continue;
        if (r.benign)
            ++c.res.benignRaces;
        if (r.weakWindow && !r.benign)
            ++c.res.weakWindowRaces;
        c.res.races.push_back(std::move(r));
    }

    const std::uint64_t v = ex.violationCount();
    if (v > 0) {
        ++c.res.violatingRuns;
        c.res.totalViolations += v;
        const int first = ex.firstViolationStep();
        vic_assert(first >= 0, "violations without a violating step");
        const std::size_t len = static_cast<std::size_t>(first) + 1;
        if (c.res.minimalCounterexample.empty() ||
            len < c.res.minimalCounterexample.size()) {
            c.res.minimalCounterexample.assign(
                prefix.begin(),
                prefix.begin() + static_cast<std::ptrdiff_t>(len));
            c.res.minimalCounterexampleLabels.clear();
            for (std::size_t i = 0; i < len; ++i)
                c.res.minimalCounterexampleLabels.push_back(
                    ex.history()[i].label);
        }
    }
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
    if (prefix.size() >= c.opt.maxSteps) {
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

        if (c.opt.hashPrune &&
            !c.visited.insert(child->stateHash()).second) {
            sleep.insert(t);
            continue;
        }

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

ScenarioResult
explore(const Scenario &scenario, const ExploreOptions &options)
{
    Ctx c{scenario, options, {}, {}, {}, {}, {}, false};
    c.res.scenario = scenario.name;
    c.res.policy = scenario.policy.name;
    c.res.memoryOrder = scenario.memoryOrder;

    node(c, runPrefix(c, {}), {}, {});
    c.res.canonicalHashes.assign(c.canon.begin(), c.canon.end());

    if (!c.res.minimalCounterexample.empty()) {
        Executor replay(scenario);
        for (int t : c.res.minimalCounterexample)
            replay.step(t);
        c.res.replayConfirmed =
            replay.violationCount() > 0 &&
            replay.firstViolationStep() ==
                static_cast<int>(c.res.minimalCounterexample.size()) -
                    1;
    }
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
    res.scenario = scenario.name;
    res.policy = scenario.policy.name;
    res.memoryOrder = scenario.memoryOrder;

    // Keyed by catalog index, so the stream does not depend on which
    // worker fuzzes the scenario.
    Random rng(streamSeed(options.seed, scenarioIndex));
    std::set<std::uint64_t> canon;
    std::set<std::uint64_t> endStates;
    std::set<std::string> raceKeys;

    for (std::uint64_t sample = 0; sample < options.samples;
         ++sample) {
        Executor ex(scenario);
        Schedule schedule;
        for (;;) {
            const std::vector<int> en = ex.enabled();
            if (en.empty() || schedule.size() >= options.maxSteps)
                break;
            const int t = en[static_cast<std::size_t>(
                rng.below(en.size()))];
            ex.step(t);
            schedule.push_back(t);
        }
        ++res.samples;
        res.steps += schedule.size();
        res.maxDepth = std::max<std::uint64_t>(res.maxDepth,
                                               schedule.size());
        if (!ex.allFinished())
            ++res.deadlockRuns;

        const std::uint64_t trace = canonicalTraceHash(ex.history());
        if (canon.insert(trace).second &&
            !std::binary_search(knownTraces.begin(),
                                knownTraces.end(), trace))
            ++res.newTraces;
        endStates.insert(ex.stateHash());

        for (RaceReport &r :
             detectRaces(ex.history(), ex.numThreads(),
                         CoherenceModel::of(scenario.mparams))) {
            if (!raceKeys.insert(r.key()).second)
                continue;
            if (r.benign)
                ++res.benignRaces;
            if (r.weakWindow && !r.benign)
                ++res.weakWindowRaces;
            res.races.push_back(std::move(r));
        }

        const std::uint64_t v = ex.violationCount();
        if (v > 0) {
            ++res.violatingRuns;
            res.totalViolations += v;
            const int first = ex.firstViolationStep();
            vic_assert(first >= 0,
                       "violations without a violating step");
            const std::size_t len =
                static_cast<std::size_t>(first) + 1;
            if (res.minimalCounterexample.empty() ||
                len < res.minimalCounterexample.size()) {
                res.minimalCounterexample.assign(
                    schedule.begin(),
                    schedule.begin() +
                        static_cast<std::ptrdiff_t>(len));
                res.minimalCounterexampleLabels.clear();
                for (std::size_t i = 0; i < len; ++i)
                    res.minimalCounterexampleLabels.push_back(
                        ex.history()[i].label);
            }
        }
    }
    res.canonicalTraces = canon.size();
    res.distinctEndStates = endStates.size();

    if (!res.minimalCounterexample.empty()) {
        Executor replay(scenario);
        for (int t : res.minimalCounterexample)
            replay.step(t);
        res.replayConfirmed =
            replay.violationCount() > 0 &&
            replay.firstViolationStep() ==
                static_cast<int>(res.minimalCounterexample.size()) - 1;
    }
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
