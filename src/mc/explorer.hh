/**
 * @file
 * Stateless DPOR explorer over scenario schedules.
 *
 * Depth-first enumeration of maximal schedules with partial-order
 * reduction: sleep sets prune re-exploration of commuting branches,
 * and a persistent-set heuristic (a thread whose next step is
 * independent, line-for-line, of everything every other thread may
 * still do forms a singleton persistent set) collapses interleavings
 * that cannot be distinguished by any conflict. Every completed
 * schedule is canonicalised to its Mazurkiewicz trace (dependence-
 * preserving normal form), so the explorer can both count the
 * inequivalent interleavings exactly and assert that the reduction
 * explored each exactly once. The state space is re-executed from
 * scratch on every branch — executions are a few dozen steps on a
 * scaled-down machine, so statelessness buys determinism and
 * replayability for free.
 *
 * Races come from the happens-before detector over each completed
 * run; a race is *confirmed* when some schedule of the same scenario
 * also fails the ConsistencyOracle, and the shortest violating prefix
 * is kept as the minimal counterexample and re-executed to prove the
 * schedule deterministically reproduces the violation.
 */

#ifndef VIC_MC_EXPLORER_HH
#define VIC_MC_EXPLORER_HH

#include <set>
#include <string>
#include <vector>

#include "mc/race.hh"
#include "mc/scenario.hh"

namespace vic::mc
{

class Executor;

/** What every completed run of a scenario adds to its result, under
 *  either pass: the members ScenarioResult and FuzzResult share. */
struct RunCensus
{
    std::string scenario;
    std::string policy;
    MemoryOrder memoryOrder = MemoryOrder::SC;

    /** Machine steps executed; DPOR re-executes each prefix. */
    std::uint64_t steps = 0;
    std::uint64_t maxDepth = 0; ///< longest schedule seen
    std::uint64_t canonicalTraces = 0; ///< inequivalent interleavings
    std::uint64_t distinctEndStates = 0;

    std::vector<RaceReport> races; ///< deduplicated across runs
    std::uint64_t benignRaces = 0;
    /** Races pairing a DMA access with an undrained store's drain. */
    std::uint64_t weakWindowRaces = 0;

    std::uint64_t violatingRuns = 0;
    Schedule minimalCounterexample; ///< shortest violating prefix
    std::vector<std::string> minimalCounterexampleLabels;
    bool replayConfirmed = false; ///< replaying it violates again

    /** Non-benign reported races. */
    std::uint64_t reportedRaces() const
    { return races.size() - benignRaces; }
};

/**
 * Fills a RunCensus from the completed runs of one scenario: the
 * canonical-trace and end-state sets, the race dedup, the violating
 * runs and the shortest violating prefix. explore() and
 * fuzzSchedules() feed every run they complete through one.
 */
class Census
{
  public:
    /** Fill @p out, which names @p scenario from here on. */
    Census(const Scenario &scenario, RunCensus &out);

    /** Count the run @p ex completed by stepping @p schedule. */
    void add(Executor &ex, const Schedule &schedule);

    /** Sorted canonical-trace hashes of the runs added so far. */
    std::vector<std::uint64_t> traceHashes() const
    { return {canon.begin(), canon.end()}; }

    /** Re-execute the shortest violating prefix on a fresh executor
     *  of the scenario: replayConfirmed iff it violates again, first
     *  at its last step. */
    void confirm();

  private:
    const Scenario &scn;
    RunCensus &out;
    std::set<std::uint64_t> canon;
    std::set<std::uint64_t> endStates;
    std::set<std::string> raceKeys;
};

struct ExploreOptions
{
    /** Maximum complete schedules to execute before giving up. */
    std::uint64_t budget = 20000;
    bool sleepSets = true;
    bool persistentSets = true;
};

struct ScenarioResult : RunCensus
{
    bool exhausted = true; ///< full space explored within budget
    bool deadlock = false; ///< some schedule blocked before finishing
    std::uint64_t executions = 0; ///< complete maximal schedules
    std::uint64_t sleepPruned = 0;
    std::uint64_t persistentPruned = 0;
    /** Non-benign race pairs in a scenario where at least one
     *  schedule failed the oracle: the race demonstrably loses data. */
    std::uint64_t confirmedRaces = 0;

    /** Sorted canonical-trace hashes of every explored run — the
     *  coverage baseline the fuzzer's samples are compared against. */
    std::vector<std::uint64_t> canonicalHashes;

    /** Did the scenario meet its expectations? */
    bool passed(const Expectation &expect) const;
};

/** Exhaustively explore one scenario. */
ScenarioResult explore(const Scenario &scenario,
                       const ExploreOptions &options);

/** Explore many scenarios on @p jobs worker threads. Results are
 *  returned in input order and are independent of @p jobs. */
std::vector<ScenarioResult>
exploreMany(const std::vector<Scenario> &scenarios,
            const ExploreOptions &options, unsigned jobs);

// --- schedule fuzzing --------------------------------------------------

struct FuzzOptions
{
    /** Random maximal schedules to sample. */
    std::uint64_t samples = 200;
    /** Base seed; the per-scenario stream is derived from it with
     *  SplitMix64 (no wall clock, no entropy — same seed, same
     *  schedules, on any machine and any --jobs). */
    std::uint64_t seed = 0x5eed;
};

/** What a fuzzing pass over one scenario found. */
struct FuzzResult : RunCensus
{
    std::uint64_t samples = 0; ///< schedules executed
    std::uint64_t deadlockRuns = 0;
    /** Traces not in the exhaustive baseline the caller passed in.
     *  Zero whenever DPOR exhausted the space — random sampling can
     *  then only rediscover known traces. */
    std::uint64_t newTraces = 0;

    /** Did the pass behave as @p expect and the exhaustive pass
     *  (@p exhausted: it covered the space) allow? Random sampling
     *  cannot prove absence, so the gate is one-sided: clean
     *  scenarios must fuzz clean, exhausted scenarios must yield no
     *  trace DPOR missed, and any violating sample must carry a
     *  deterministically replayable schedule. */
    bool passed(const Expectation &expect, bool exhausted) const;
};

/**
 * Sample random maximal schedules of one scenario. @p knownTraces is
 * the sorted canonical-hash baseline (ScenarioResult::canonicalHashes)
 * used to count newTraces; pass empty when no exhaustive pass ran.
 * The per-scenario stream is derived from options.seed and
 * @p scenarioIndex, so a catalog fuzzed in parallel samples the same
 * schedules as one fuzzed serially.
 */
FuzzResult fuzzSchedules(const Scenario &scenario,
                         const FuzzOptions &options,
                         std::size_t scenarioIndex,
                         const std::vector<std::uint64_t> &knownTraces);

/** Fuzz many scenarios on @p jobs worker threads. @p knownTraces is
 *  indexed like @p scenarios (may be empty). Results are returned in
 *  input order and are independent of @p jobs. */
std::vector<FuzzResult>
fuzzMany(const std::vector<Scenario> &scenarios,
         const FuzzOptions &options,
         const std::vector<std::vector<std::uint64_t>> &knownTraces,
         unsigned jobs);

} // namespace vic::mc

#endif // VIC_MC_EXPLORER_HH
