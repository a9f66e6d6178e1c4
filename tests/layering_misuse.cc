/**
 * @file
 * Compile-time check of the layer roots (src/CMakeLists.txt).
 *
 * This file compiles on the cache module's include root, which links
 * to cache/ and to the modules of lower layers (common, mem, mmu and
 * oracle) and to nothing else. Built plain, it is the control: a
 * cache header and headers of lower layers resolve. The WILL_FAIL
 * ctest entry in tests/CMakeLists.txt rebuilds it with one defect
 * macro, and it must be rejected:
 *
 *  - VIC_LAYERING_UPWARD includes an OS header, from a higher layer,
 *    which fails with "No such file or directory".
 */

#include "cache/cache.hh"
#include "common/types.hh"
#include "mem/physical_memory.hh"

#if defined(VIC_LAYERING_UPWARD)
#include "os/kernel.hh"
#endif
