/**
 * @file
 * Typed object arena with slot recycling.
 *
 * The page table (and anything else that churns small fixed-size
 * records) used to lean on node-based standard containers: every
 * enter/remove was a malloc/free, and a translate walk chased
 * pointers into whatever the allocator handed back. The arena
 * replaces that with chunked contiguous storage:
 *
 *  - alloc() pops the most recently released slot (LIFO keeps reuse
 *    hot in the host cache) or bumps into the current chunk;
 *  - release() recycles a slot without returning memory to the host;
 *  - pointers are stable for the arena's lifetime — chunks never
 *    move — which is exactly the guarantee the TLB's cached
 *    PageTableEntry handles need (tlb.hh file doc).
 *
 * Determinism: allocation order is a pure function of the call
 * sequence (no addresses, sizes or host state feed back into it), so
 * simulated behaviour cannot depend on the host allocator. Pointer
 * VALUES must still never reach simulated state or artifacts.
 */

#ifndef VIC_COMMON_ARENA_HH
#define VIC_COMMON_ARENA_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace vic
{

template <typename T>
class Arena
{
  public:
    /** @p chunk_capacity objects per contiguous chunk. */
    explicit Arena(std::size_t chunk_capacity = 256)
        : chunkCap(chunk_capacity == 0 ? 1 : chunk_capacity)
    {}

    /** Take a slot (recycled LIFO, else bump-allocated) and
     *  value-initialise it as T{args...}. */
    template <typename... Args>
    T *
    alloc(Args &&...args)
    {
        T *slot;
        if (!freeSlots.empty()) {
            slot = freeSlots.back();
            freeSlots.pop_back();
        } else {
            if (chunks.empty() || usedInLast == chunkCap) {
                chunks.push_back(std::make_unique<T[]>(chunkCap));
                usedInLast = 0;
            }
            slot = &chunks.back()[usedInLast++];
        }
        *slot = T{std::forward<Args>(args)...};
        return slot;
    }

    /** Recycle @p p for a later alloc(); the memory stays owned by
     *  the arena (pointer stability for everything still live). */
    void
    release(T *p)
    {
        *p = T{};
        freeSlots.push_back(p);
    }

  private:
    std::size_t chunkCap;
    std::size_t usedInLast = 0;
    std::vector<std::unique_ptr<T[]>> chunks;
    std::vector<T *> freeSlots;
};

} // namespace vic

#endif // VIC_COMMON_ARENA_HH
