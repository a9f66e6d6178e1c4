#include "mem/physical_memory.hh"

#include <bit>

#include "common/logging.hh"

namespace vic
{

PhysicalMemory::PhysicalMemory(std::uint64_t num_frames,
                               std::uint32_t page_size)
    : frames(num_frames), pageBytes(page_size),
      frameWordShift(std::countr_zero(page_size) - 2),
      written(num_frames, false)
{
    vic_assert(page_size >= 4 && std::has_single_bit(page_size),
               "page size %u not a power of two >= 4", page_size);
    store = std::make_unique_for_overwrite<std::uint32_t[]>(
        frames * (pageBytes / 4));
}

void
PhysicalMemory::zeroFill(std::uint64_t frame)
{
    std::fill_n(store.get() + (frame << frameWordShift),
                std::uint64_t(1) << frameWordShift, 0u);
    written[frame] = true;
}

void
PhysicalMemory::badAccess(PhysAddr pa, std::uint32_t nwords) const
{
    if (pa.value % 4 != 0)
        vic_panic("unaligned physical word access %llx",
                  (unsigned long long)pa.value);
    if (pa.value / 4 + nwords > frames << frameWordShift)
        vic_panic("physical range %llx+%u out of range",
                  (unsigned long long)pa.value, nwords * 4);
    vic_panic("physical range %llx+%u crosses a frame boundary",
              (unsigned long long)pa.value, nwords * 4);
}

} // namespace vic
