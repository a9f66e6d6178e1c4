/**
 * @file
 * Compile-time check of the ordered-container guard
 * (cmake/ordered_guard.hh), which vic_common, vic_mmu and vic_mc
 * read after the determinism guard.
 *
 * Built plain, this file is the control: a std::map compiles under
 * both guards. The WILL_FAIL ctest entry in tests/CMakeLists.txt
 * rebuilds it under the ordered guard with one defect macro, and it
 * must be rejected as an "attempt to use poisoned" name:
 *
 *  - VIC_ORDERED_UNORDERED keeps std::unordered_map and
 *    std::unordered_set, whose iteration order depends on the hash
 *    seed and on host addresses.
 */

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace vic
{

std::uint64_t
countKeys(const std::map<std::uint64_t, int> &ordered)
{
    std::uint64_t n = ordered.size();
#if defined(VIC_ORDERED_UNORDERED)
    std::unordered_map<std::uint64_t, int> byKey(ordered.begin(),
                                                 ordered.end());
    std::unordered_set<std::uint64_t> keys;
    for (const auto &[key, value] : byKey)
        keys.insert(key);
    n += keys.size();
#endif
    return n;
}

} // namespace vic
