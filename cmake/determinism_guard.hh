/**
 * @file
 * Determinism guard. CMake forces it with -include into every
 * translation unit of src/, tools/, bench/, tests/ and examples/.
 *
 * Every artifact must be a pure function of its inputs: the same
 * bytes across runs, hosts and --jobs settings. So no code may read
 * the wall clock or an entropy source, and none may use a std random
 * engine, distribution or shuffle, whose streams are
 * implementation-defined; draw from src/common/random.hh instead.
 * std::chrono::steady_clock stays legal: it times host work for
 * progress and throughput reports and never feeds simulated state.
 *
 * A poisoned name is rejected wherever it appears after the pragma,
 * so the standard headers that name one come first and are read
 * before the ban. A translation unit that includes another such
 * header fails inside it with "attempt to use poisoned"; add that
 * header to the list below.
 */

#ifndef VIC_DETERMINISM_GUARD_HH
#define VIC_DETERMINISM_GUARD_HH

#include <algorithm> // std::shuffle, uniform_int_distribution
#include <ctime>     // time
#include <mutex>     // system_clock
#include <random>    // the engines and distributions
#include <stdlib.h>  // rand, srand; reads <cstdlib>
#include <thread>    // system_clock, through <bits/chrono.h>

// Wall clock.
#pragma GCC poison time system_clock
// Entropy.
#pragma GCC poison rand srand random_device
// std random engines, distributions and shuffle.
#pragma GCC poison linear_congruential_engine mersenne_twister_engine
#pragma GCC poison subtract_with_carry_engine discard_block_engine
#pragma GCC poison independent_bits_engine shuffle_order_engine
#pragma GCC poison minstd_rand0 minstd_rand mt19937 mt19937_64
#pragma GCC poison ranlux24_base ranlux48_base ranlux24 ranlux48 knuth_b
#pragma GCC poison default_random_engine
#pragma GCC poison uniform_int_distribution uniform_real_distribution
#pragma GCC poison bernoulli_distribution binomial_distribution
#pragma GCC poison geometric_distribution negative_binomial_distribution
#pragma GCC poison poisson_distribution exponential_distribution
#pragma GCC poison gamma_distribution weibull_distribution
#pragma GCC poison extreme_value_distribution normal_distribution
#pragma GCC poison lognormal_distribution chi_squared_distribution
#pragma GCC poison cauchy_distribution fisher_f_distribution
#pragma GCC poison student_t_distribution discrete_distribution
#pragma GCC poison piecewise_constant_distribution
#pragma GCC poison piecewise_linear_distribution
#pragma GCC poison shuffle

#endif // VIC_DETERMINISM_GUARD_HH
