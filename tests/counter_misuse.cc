/**
 * @file
 * Compile-time half of counter registration (the run-time half is
 * common_test's StatSet death tests).
 *
 * Built plain, this file is the control: a counter registered with a
 * StatSet and bumped through its reference compiles. The WILL_FAIL
 * ctest entries in tests/CMakeLists.txt rebuild it with one defect
 * macro, and each must be rejected by the compiler:
 *
 *  - VIC_COUNTER_CONSTRUCT builds a Counter outside any StatSet — a
 *    row no artifact would show; only StatSet can make the passkey;
 *  - VIC_COUNTER_COPY copies a registered Counter, which would bump
 *    an unregistered twin — Counter's copy constructor is deleted.
 */

#include <cstdint>

#include "common/stats.hh"

namespace vic
{

std::uint64_t
bumpRegistered(StatSet &stats)
{
    Counter &hits = stats.counter("misuse.hits");
    ++hits;
#if defined(VIC_COUNTER_CONSTRUCT)
    Counter rogue(Counter::Key{});
    ++rogue;
#elif defined(VIC_COUNTER_COPY)
    Counter copy = hits;
    ++copy;
#endif
    return hits.value();
}

} // namespace vic
