#include "mem/physical_memory.hh"

#include "common/logging.hh"

namespace vic
{

PhysicalMemory::PhysicalMemory(std::uint64_t num_frames,
                               std::uint32_t page_size)
    : frames(num_frames), pageBytes(page_size)
{
    vic_assert(page_size >= 4 && page_size % 4 == 0,
               "page size %u not a multiple of 4", page_size);
    store.assign(frames * (pageBytes / 4), 0);
}

void
PhysicalMemory::badAccess(PhysAddr pa, std::uint32_t nwords) const
{
    if (pa.value % 4 != 0)
        vic_panic("unaligned physical word access %llx",
                  (unsigned long long)pa.value);
    vic_panic("physical range %llx+%u out of range",
              (unsigned long long)pa.value, nwords * 4);
}

} // namespace vic
