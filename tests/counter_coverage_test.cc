/**
 * @file
 * Run-time half of counter registration: every registered counter
 * reports something, and bus.* rows exist only on machines with a bus.
 * (StatSet's death tests in common_test cover names and duplicates;
 * the counter_rejects_* compile-fail entries cover unregistered and
 * copied Counters.)
 *
 * The test sweeps every suite's specs (the runs of the golden
 * record's sweep) through the experiment engine and checks the counter
 * snapshots:
 *
 *  - a run has bus.* rows if and only if its machine has a
 *    CoherenceBus. An eager bus.* registration elsewhere would add
 *    zero-valued rows to every bus-less artifact;
 *  - every counter family is nonzero in some run. A family is a
 *    counter name with the dcacheN/icacheN CPU index dropped, so
 *    "dcache0.reads" and "dcache1.reads" both count as "dcache.reads".
 *    A family that stays zero reports a forever-zero statistic, unless
 *    kExpectedZero lists it with the reason. A listed family must
 *    still be registered and still be zero in every run, so the list
 *    cannot outlive its reasons.
 */

#include <algorithm>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "bench/suites.hh"
#include "machine/machine.hh"

namespace vic
{
namespace
{

const char *const kIPurgeOnly =
    "the pmap flushes only D-cache pages; I-cache pages are purged";
const char *const kNoISynonyms =
    "no run fetches one text page at two colours on a machine with "
    "synonym coherence";
const char *const kNoPressure =
    "no suite runs the free pool below the pageout low-water mark; "
    "pageout_test does";

/** Families no suite run bumps, each with the reason. */
const std::map<std::string, std::string> kExpectedZero = {
    {"icache.writes", "the CPU only fetches through an I-cache"},
    {"icache.write_backs", "I-cache lines are never written, so never "
                           "dirty"},
    {"icache.flush_present", kIPurgeOnly},
    {"icache.flush_absent", kIPurgeOnly},
    {"icache.flush_cycles", kIPurgeOnly},
    {"icache.synonym_snoops", kNoISynonyms},
    {"icache.synonym_snoop_cycles", kNoISynonyms},
    {"os.pageins", kNoPressure},
    {"os.pageouts", kNoPressure},
    {"os.swap_writes", kNoPressure},
    {"os.text_drops", kNoPressure},
};

/** @p name with a dcacheN/icacheN CPU index dropped. */
std::string
family(const std::string &name)
{
    for (const char *prefix : {"dcache", "icache"}) {
        const std::string p(prefix);
        if (name.compare(0, p.size(), p) != 0)
            continue;
        std::size_t digits = p.size();
        while (digits < name.size() && name[digits] >= '0' &&
               name[digits] <= '9')
            ++digits;
        return p + name.substr(digits);
    }
    return name;
}

TEST(CounterCoverage, SweepBumpsEveryFamilyAndBusRowsNeedABus)
{
    std::vector<RunSpec> specs;
    for (const bench::Suite *suite : bench::allSuites()) {
        for (RunSpec &spec : suite->specs())
            specs.push_back(std::move(spec));
    }
    ASSERT_FALSE(specs.empty());

    const std::vector<RunOutcome> outcomes = ExperimentEngine().run(
        specs, std::max(1u, std::thread::hardware_concurrency()));
    ASSERT_EQ(outcomes.size(), specs.size());

    std::map<std::string, std::uint64_t> family_total;
    std::size_t with_bus = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunOutcome &out = outcomes[i];
        ASSERT_TRUE(out.ok) << out.id << ": " << out.error;

        const bool has_bus =
            Machine(specs[i].machine).coherenceBus() != nullptr;
        with_bus += has_bus ? 1 : 0;
        bool has_bus_rows = false;
        for (const auto &[name, value] : out.result.stats) {
            has_bus_rows |= name.compare(0, 4, "bus.") == 0;
            family_total[family(name)] += value;
        }
        EXPECT_EQ(has_bus_rows, has_bus) << out.id;
    }
    // Both sides of the bus check were exercised.
    EXPECT_GT(with_bus, 0u);
    EXPECT_LT(with_bus, specs.size());

    for (const auto &[name, total] : family_total) {
        if (kExpectedZero.count(name) == 0)
            EXPECT_GT(total, 0u) << name << " is zero in every run";
        else
            EXPECT_EQ(total, 0u)
                << name << " is nonzero now: drop it from kExpectedZero";
    }
    for (const auto &[name, reason] : kExpectedZero)
        EXPECT_EQ(family_total.count(name), 1u)
            << name << " is no longer registered (" << reason << ")";
}

} // anonymous namespace
} // namespace vic
