/**
 * @file
 * Named statistic counters.
 *
 * Each simulated machine owns a StatSet; components register named
 * counters at construction time and bump them on the hot path with
 * plain integer increments. Benches read the set back by name to
 * print the paper's tables.
 *
 * Every Counter is a registered artifact row, by construction: only a
 * StatSet can make one, none can be copied, and each name registers
 * exactly once (a second registration panics). Components that report
 * into one row — the per-CPU TLBs' tlb.hits — share the Counter their
 * owner registered.
 */

#ifndef VIC_COMMON_STATS_HH
#define VIC_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace vic
{

class StatSet;

/** A single monotonically increasing statistic. */
class Counter
{
  public:
    /** Passkey: only a StatSet can make one, so only a StatSet can
     *  make a Counter. (A private constructor would not do: std::map
     *  builds the Counter in place, outside StatSet's friendship.) */
    class Key
    {
        friend class StatSet;
        Key() = default;
    };

    explicit Counter(Key) {}
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    std::uint64_t value() const { return value_; }

    void operator+=(std::uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }

  private:
    std::uint64_t value_ = 0;
};

/** An ordered collection of counters, keyed by name. */
class StatSet
{
  public:
    StatSet() = default;
    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    /** Register the counter called @p name. Panics, naming it, when
     *  @p name is already registered or is not [a-z0-9_.]+. The
     *  returned reference remains valid for the StatSet's lifetime. */
    Counter &counter(const std::string &name);

    /** Current value of @p name; 0 if it was never registered. */
    std::uint64_t value(const std::string &name) const;

    /** Capture a snapshot of all current values, ordered by name.
     *  Snapshots feed the JSON artifacts, so the container must have a
     *  deterministic iteration order (the ordered-container guard
     *  poisons unordered containers in every src/common TU). */
    std::map<std::string, std::uint64_t> snapshot() const;

  private:
    /** Map nodes never move, so handed-out references stay valid. */
    std::map<std::string, Counter> counters;
};

} // namespace vic

#endif // VIC_COMMON_STATS_HH
