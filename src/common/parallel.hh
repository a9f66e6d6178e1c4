/**
 * @file
 * The one worker pool: the experiment engine's runs and the model
 * checker's scenarios fan out through parallelFor.
 */

#ifndef VIC_COMMON_PARALLEL_HH
#define VIC_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace vic
{

/**
 * Call @p body(i) once for every i in [0, @p n) on min(@p jobs, n)
 * threads, returning when all calls have. Threads claim indices from
 * a shared counter, so completion order is arbitrary; a body that
 * writes only slot i of a pre-sized output yields the same output for
 * any @p jobs. With fewer than two threads the calls run in index
 * order on the calling thread.
 */
template <typename Body>
void
parallelFor(std::size_t n, unsigned jobs, Body &&body)
{
    const std::size_t threads = std::min<std::size_t>(jobs, n);
    if (threads < 2) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> pool; // joins on destruction
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < n; i = next++)
                body(i);
        });
    }
}

} // namespace vic

#endif // VIC_COMMON_PARALLEL_HH
