#include "common/random.hh"

#include "common/logging.hh"

namespace vic
{

namespace
{

constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += kGoldenGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
streamSeed(std::uint64_t base, std::uint64_t index)
{
    return splitmix64(splitmix64(base) ^ splitmix64(0x5eedULL + index));
}

Random::Random(std::uint64_t seed)
{
    for (auto &s : state) {
        s = splitmix64(seed);
        seed += kGoldenGamma;
    }
}

std::uint64_t
Random::next64()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
}

std::uint64_t
Random::below(std::uint64_t bound)
{
    vic_assert(bound != 0, "Random::below(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next64();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Random::between(std::uint64_t lo, std::uint64_t hi)
{
    vic_assert(lo <= hi, "Random::between(%llu, %llu)",
               (unsigned long long)lo, (unsigned long long)hi);
    return lo + below(hi - lo + 1);
}

bool
Random::chance(std::uint64_t numer, std::uint64_t denom)
{
    vic_assert(denom != 0, "Random::chance denominator is zero");
    return below(denom) < numer;
}

double
Random::real()
{
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

} // namespace vic
