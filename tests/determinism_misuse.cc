/**
 * @file
 * Compile-time check of the determinism guard
 * (cmake/determinism_guard.hh), which every translation unit reads
 * first.
 *
 * Built plain, this file is the control: a draw from the repo's own
 * seeded generator and a steady_clock reading compile under the guard.
 * The WILL_FAIL ctest entries in tests/CMakeLists.txt rebuild it with
 * one defect macro under the guard, and each must be rejected as an
 * "attempt to use poisoned" name:
 *
 *  - VIC_DETERMINISM_WALLCLOCK reads the wall clock, through
 *    std::chrono::system_clock and C time();
 *  - VIC_DETERMINISM_ENTROPY draws entropy from std::rand, std::srand
 *    and std::random_device;
 *  - VIC_DETERMINISM_STD_RANDOM draws from a std engine and
 *    distribution and calls std::shuffle, whose streams are
 *    implementation-defined.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <random>
#include <vector>

#include "common/random.hh"

namespace vic
{

std::uint64_t
drawSeeded(std::uint64_t seed, std::chrono::steady_clock::time_point t0)
{
    Random rng(seed);
    std::uint64_t v = rng.below(10);
    if (std::chrono::steady_clock::now() < t0)
        ++v;
#if defined(VIC_DETERMINISM_WALLCLOCK)
    v += std::chrono::system_clock::now().time_since_epoch().count();
    v += static_cast<std::uint64_t>(time(nullptr));
#elif defined(VIC_DETERMINISM_ENTROPY)
    std::srand(1);
    v += static_cast<std::uint64_t>(std::rand());
    std::random_device device;
    v += device();
#elif defined(VIC_DETERMINISM_STD_RANDOM)
    std::mt19937_64 engine(seed);
    std::uniform_int_distribution<std::uint64_t> digit(0, 9);
    v += digit(engine);
    std::vector<int> order{1, 2, 3};
    std::shuffle(order.begin(), order.end(), engine);
#endif
    return v;
}

} // namespace vic
