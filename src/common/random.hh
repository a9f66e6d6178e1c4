/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Every workload generator and property test seeds its own Random so
 * that runs are bit-for-bit reproducible; nothing in the simulator uses
 * global randomness or wall-clock entropy.
 */

#ifndef VIC_COMMON_RANDOM_HH
#define VIC_COMMON_RANDOM_HH

#include <cstdint>

namespace vic
{

/** SplitMix64: the output for state @p x (mix of x + golden gamma). */
std::uint64_t splitmix64(std::uint64_t x);

/**
 * Seed of the @p index-th stream derived from @p base: two SplitMix64
 * rounds over (base, index), so nearby indices give unrelated streams.
 * A pure function of its inputs, which is what lets work fanned out
 * across threads draw exactly what a serial run draws.
 */
std::uint64_t streamSeed(std::uint64_t base, std::uint64_t index);

class Random
{
  public:
    /** Construct with a 64-bit seed; the seed is expanded with
     *  SplitMix64 so nearby seeds give unrelated streams. */
    explicit Random(std::uint64_t seed = 0x5eed);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform value in [0, bound); @p bound must be nonzero. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli draw: true with probability @p numer / @p denom. */
    bool chance(std::uint64_t numer, std::uint64_t denom);

    /** Uniform double in [0, 1). */
    double real();

  private:
    std::uint64_t state[4];
};

} // namespace vic

#endif // VIC_COMMON_RANDOM_HH
