#include "cache/cache_geometry.hh"

#include <bit>

#include "common/logging.hh"

namespace vic
{

CacheGeometry::CacheGeometry(std::uint64_t cache_bytes,
                             std::uint32_t line_bytes,
                             std::uint32_t page_bytes, std::uint32_t ways,
                             Indexing indexing)
    : bytes(cache_bytes), line(line_bytes), page(page_bytes),
      numWays(ways), index(indexing)
{
    if (!std::has_single_bit(cache_bytes))
        vic_fatal("cache size %llu not a power of two",
                  (unsigned long long)cache_bytes);
    if (!std::has_single_bit(line_bytes) || line_bytes % 4 != 0)
        vic_fatal("line size %u invalid", line_bytes);
    if (!std::has_single_bit(page_bytes) || page_bytes < line_bytes)
        vic_fatal("page size %u invalid", page_bytes);
    if (ways == 0 || cache_bytes % (std::uint64_t(line_bytes) * ways) != 0)
        vic_fatal("associativity %u incompatible with geometry", ways);

    shift = static_cast<std::uint32_t>(std::countr_zero(line));
    pageShiftBits = static_cast<std::uint32_t>(std::countr_zero(page));
    lines = static_cast<std::uint32_t>(bytes / line);
    sets = lines / numWays;
    if (!std::has_single_bit(sets))
        vic_fatal("number of sets %u not a power of two", sets);

    const std::uint64_t span = setSpanBytes();
    spanCols = span > page ? static_cast<std::uint32_t>(span / page) : 1;
    colours = index == Indexing::Physical ? 1 : spanCols;
}

} // namespace vic
