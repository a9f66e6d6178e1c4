/**
 * @file
 * Operating-system layer configuration.
 *
 * Fixed virtual-address layout constants and sizing knobs for the
 * Mach-like kernel. The fixed addresses deliberately have unrelated
 * cache colours, reproducing the original system's behaviour in which
 * kernel- and server-chosen addresses "did not align, so accesses
 * resulted in frequent consistency faults" (Section 4.2) until the
 * alignment policies were enabled.
 */

#ifndef VIC_OS_OS_PARAMS_HH
#define VIC_OS_OS_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace vic
{

struct OsParams
{
    // --- space ids ---
    static constexpr SpaceId kernelSpace = 0;
    static constexpr SpaceId serverSpace = 1;
    static constexpr SpaceId firstTaskSpace = 2;

    // --- kernel virtual layout (space 0) ---
    /** Window used to prepare (zero/copy) destination pages when no
     *  aligned address is requested. */
    static constexpr std::uint64_t prepareDestBase = 0x0010'0000;
    /** Aligned prepare windows: one page per cache colour. */
    static constexpr std::uint64_t alignedPrepareBase = 0x0100'0000;
    /** Window used to map the source frame of a page copy. */
    static constexpr std::uint64_t copySrcBase = 0x0200'0000;

    // --- server virtual layout (space 1) ---
    /** Buffer-cache buffers: one page per slot. */
    static constexpr std::uint64_t bufferCacheBase = 0x0300'0000;
    /** Fixed base for per-task shared pages in the server (the "old"
     *  non-aligning allocation). */
    static constexpr std::uint64_t serverSharedBase = 0x0400'1000;
    /** Kernel-chosen (aligning) shared-page allocations. */
    static constexpr std::uint64_t serverDynamicBase = 0x0800'0000;

    // --- task virtual layout (every task space) ---
    /** Program text region base. */
    static constexpr std::uint64_t taskTextBase = 0x4000'0000;
    /** Fixed base for the task side of the Unix-server shared pages
     *  (the "old" non-aligning allocation — note the colour differs
     *  from serverSharedBase). */
    static constexpr std::uint64_t taskSharedBase = 0x5000'3000;
    /** Base of kernel-chosen task allocations (IPC destinations,
     *  vm_allocate). */
    static constexpr std::uint64_t taskDynamicBase = 0x8000'0000;

    // --- sizing ---
    std::uint32_t bufferCacheSlots = 96;
    /** Flush dirty buffers beyond this count (write-behind). */
    std::uint32_t writeBehindThreshold = 24;
    /** Shared pages between each task and the Unix server. */
    static constexpr std::uint32_t sharedPagesPerTask = 1;
    /** Words the syscall stub writes/reads through the shared page. */
    static constexpr std::uint32_t syscallArgWords = 8;

    // --- pageout daemon ---
    /** Reclaim pages when the free pool drops below this. */
    std::uint64_t pageoutLowWater = 12;
    /** ...until it reaches this. */
    std::uint64_t pageoutHighWater = 32;
    bool enablePageout = true;
};

} // namespace vic

#endif // VIC_OS_OS_PARAMS_HH
