/**
 * @file
 * Ordered-container guard. CMake forces it with -include into every
 * translation unit of vic_common, vic_mmu and vic_mc, after the
 * determinism guard.
 *
 * An unordered container iterates in an order that depends on the
 * hash seed and on host addresses. The model checker's results must be
 * identical for every --jobs setting, the page table derives its
 * chains from a fixed key mix, and every artifact flows through the
 * common headers, so these modules, and every header they include,
 * use std::map and std::set instead.
 *
 * The standard headers that name one are read before the ban, so a
 * translation unit may include them and only a use is rejected; add
 * any other such header to the list below.
 */

#ifndef VIC_ORDERED_GUARD_HH
#define VIC_ORDERED_GUARD_HH

#include <functional> // std::boyer_moore_searcher's skip table
#include <unordered_map>
#include <unordered_set>

#pragma GCC poison unordered_map unordered_set
#pragma GCC poison unordered_multimap unordered_multiset

#endif // VIC_ORDERED_GUARD_HH
