/**
 * @file
 * Compile-time half of the address-kind split: the types, not a lint
 * pass, keep virtual and physical bits apart.
 *
 * Built plain, this file is the control: translations that compose
 * one address's bits with a base compile, and so does a set index
 * taken from both addresses of an access. The WILL_FAIL ctest
 * entries in tests/CMakeLists.txt rebuild it with one defect macro,
 * and each must be rejected by the compiler:
 *
 *  - VIC_ADDR_KIND_REWRAP_PHYS re-wraps untranslated virtual bits as a
 *    PhysAddr — PhysAddr's constructor from virtual bits is deleted;
 *  - VIC_ADDR_KIND_REWRAP_VIRT re-wraps physical bits as a VirtAddr,
 *    the mirror image;
 *  - VIC_ADDR_KIND_RAW_SET_INDEX indexes the cache with one address's
 *    raw bits — setIndex takes the (va, pa) pair and picks the index
 *    bits by the geometry's own Indexing, so no raw channel exists;
 *  - VIC_ADDR_KIND_SWAPPED_SET_INDEX passes that pair in the wrong
 *    order.
 */

#include <cstdint>

#include "cache/cache_geometry.hh"

namespace vic
{

PhysAddr
translate(VirtAddr va, FrameId frame, std::uint32_t page_bytes)
{
#if defined(VIC_ADDR_KIND_REWRAP_PHYS)
    return PhysAddr{va.value};
#else
    return PhysAddr(frame * page_bytes + (va.value & (page_bytes - 1)));
#endif
}

/** The alias of @p pa in a direct-mapped kernel window at @p window. */
VirtAddr
windowAlias(PhysAddr pa, VirtAddr window)
{
#if defined(VIC_ADDR_KIND_REWRAP_VIRT)
    return VirtAddr(pa.value);
#else
    return window.plus(pa.value);
#endif
}

std::uint32_t
setOf(const CacheGeometry &geo, VirtAddr va, PhysAddr pa)
{
#if defined(VIC_ADDR_KIND_RAW_SET_INDEX)
    return geo.setIndex(pa.value);
#elif defined(VIC_ADDR_KIND_SWAPPED_SET_INDEX)
    return geo.setIndex(pa, va);
#else
    return geo.setIndex(va, pa);
#endif
}

} // namespace vic
