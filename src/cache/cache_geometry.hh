/**
 * @file
 * Cache geometry: index function, cache pages ("colours"), and the
 * alignment predicate.
 *
 * Two virtual addresses ALIGN iff the cache index function maps them to
 * the same line; aligned aliases share cache lines and therefore create
 * no consistency problem (Section 2.2). A CACHE PAGE is the set of
 * cache lines onto which the index function maps all addresses of one
 * virtual page (Section 4); with page-sized granularity, alignment of
 * any one address in two pages implies alignment of all of them, which
 * is the paper's first hardware requirement.
 */

#ifndef VIC_CACHE_CACHE_GEOMETRY_HH
#define VIC_CACHE_CACHE_GEOMETRY_HH

#include <cstdint>

#include "common/types.hh"

namespace vic
{

/** Which address selects the cache set. */
enum class Indexing : std::uint8_t
{
    Virtual,  ///< virtually indexed (lookup parallel with translation)
    Physical, ///< physically indexed (translation first)
};

class CacheGeometry
{
  public:
    /**
     * @param cache_bytes total capacity; power of two
     * @param line_bytes  line size; power of two, multiple of 4
     * @param page_bytes  virtual-memory page size; power of two
     * @param ways        associativity (1 = direct mapped)
     * @param indexing    virtual or physical indexing
     */
    CacheGeometry(std::uint64_t cache_bytes, std::uint32_t line_bytes,
                  std::uint32_t page_bytes, std::uint32_t ways,
                  Indexing indexing);

    std::uint64_t cacheBytes() const { return bytes; }
    std::uint32_t lineBytes() const { return line; }
    std::uint32_t pageBytes() const { return page; }
    std::uint32_t associativity() const { return numWays; }
    Indexing indexing() const { return index; }

    std::uint32_t numLines() const { return lines; }
    std::uint32_t numSets() const { return sets; }
    std::uint32_t wordsPerLine() const { return line / 4; }
    std::uint32_t linesPerPage() const { return page >> shift; }

    /** log2(lineBytes()): every size is a power of two, so the access
     *  path shifts and masks instead of dividing by run-time values. */
    std::uint32_t lineShift() const { return shift; }

    /** Bytes spanned by one pass over all sets: the period of the index
     *  function in the address. */
    std::uint64_t setSpanBytes() const { return std::uint64_t(sets) * line; }

    /** Number of cache pages (colours). 1 means every pair of virtual
     *  pages aligns, i.e. the cache behaves like a physically indexed
     *  one for consistency purposes. */
    std::uint32_t numColours() const { return colours; }

    /** Page-sized regions per set span, regardless of indexing: the
     *  number of distinct sets a given physical line could occupy
     *  (used by physical snooping, which must probe every candidate
     *  since only the page-offset bits of the index are known). */
    std::uint32_t spanColours() const { return spanCols; }

    /** Cache set of the access (@p va -> @p pa): the set bits come
     *  from @p va under virtual indexing and from @p pa under physical
     *  indexing. Inline: this runs once per simulated access on the
     *  pipeline fast path. */
    std::uint32_t
    setIndex(VirtAddr va, PhysAddr pa) const
    {
        const std::uint64_t bits =
            index == Indexing::Virtual ? va.value.bits : pa.value.bits;
        return static_cast<std::uint32_t>((bits >> shift) & (sets - 1));
    }

    /** Cache page (colour) of the virtual page containing @p va. For a
     *  physically indexed cache this is always 0: all virtual pages
     *  align (numColours() is 1, so the mask is 0). */
    CachePageId
    colourOf(VirtAddr va) const
    {
        return static_cast<CachePageId>((va.value >> pageShiftBits) &
                                        (colours - 1));
    }

    /** @return true iff @p a and @p b align in the cache. */
    bool aligned(VirtAddr a, VirtAddr b) const
    { return colourOf(a) == colourOf(b); }

    /** First byte of the line containing @p pa. */
    PhysAddr lineBase(PhysAddr pa) const
    { return PhysAddr(pa.value & ~std::uint64_t(line - 1)); }

  private:
    std::uint64_t bytes;
    std::uint32_t line;
    std::uint32_t page;
    std::uint32_t numWays;
    Indexing index;

    std::uint32_t shift;
    std::uint32_t pageShiftBits; ///< log2(pageBytes()), for colourOf()
    std::uint32_t lines;
    std::uint32_t sets;
    std::uint32_t colours;
    std::uint32_t spanCols;
};

} // namespace vic

#endif // VIC_CACHE_CACHE_GEOMETRY_HH
