/**
 * @file
 * A task's (or the Unix server's) virtual address space: a set of
 * regions mapping VM objects, plus a virtual-address allocator that
 * can honour cache-colour requests — the hook through which the
 * operating system "selects virtual addresses that naturally align
 * within the cache so that consistency operations can be avoided"
 * (Section 1.1).
 */

#ifndef VIC_OS_ADDRESS_SPACE_HH
#define VIC_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "os/vm_object.hh"

namespace vic
{

/** One mapped range of an address space. */
struct Region
{
    VirtAddr start;
    std::uint32_t numPages = 0;
    Protection prot;          ///< current VM-level protection
    Protection maxProt;       ///< ceiling for protection changes
    bool copyOnWrite = false; ///< writes get a private copy
    std::shared_ptr<VmObject> object;
    std::uint64_t objectPageOffset = 0;

    /** Private page overlays created by copy-on-write faults, keyed by
     *  page index within the region. */
    std::vector<std::optional<FrameId>> privatePages;

    /** @return true iff @p va lies inside this region. */
    bool contains(VirtAddr va, std::uint32_t page_bytes) const;

    /** Page index within the region of @p va. */
    std::uint32_t pageIndexOf(VirtAddr va, std::uint32_t page_bytes) const;
};

class AddressSpace
{
  public:
    /**
     * @param space_id  hardware space identifier
     * @param page_bytes VM page size
     * @param num_colours data-cache colours (for colour-directed
     *        address allocation)
     * @param dynamic_base start of the kernel-chosen allocation area
     */
    AddressSpace(SpaceId space_id, std::uint32_t page_bytes,
                 std::uint32_t num_colours, VirtAddr dynamic_base);

    SpaceId id() const { return spaceId; }

    /** Region containing @p va; nullptr if unmapped. */
    Region *regionFor(VirtAddr va);
    const Region *regionFor(VirtAddr va) const;

    /**
     * Pick @p pages contiguous unused pages in the dynamic area. When
     * @p colour is given, the first page's data-cache colour matches
     * it (the alignment optimisation); otherwise allocation is
     * first-fit, which on the original system meant "the source and
     * destination virtual addresses rarely aligned" (Section 4.2).
     */
    VirtAddr allocateVa(std::uint32_t pages,
                        std::optional<CachePageId> colour);

    /** Create a region. @p start must not overlap an existing one. */
    Region &createRegion(VirtAddr start, std::uint32_t pages,
                         Protection prot, Protection max_prot,
                         std::shared_ptr<VmObject> object,
                         std::uint64_t object_page_offset,
                         bool copy_on_write);

    /** Detach and return the region starting at @p start. */
    Region removeRegion(VirtAddr start);

    /** All regions (teardown iteration). */
    std::vector<Region> &regions() { return regionList; }

    /** First-access tracking: returns true the first time a given
     *  virtual page is claimed, so the kernel can tell mapping faults
     *  (first access, architecture-independent) from consistency
     *  re-faults. */
    bool claimFirstAccess(VirtAddr page_va);

  private:
    SpaceId spaceId;
    std::uint32_t pageBytes;
    std::uint32_t colours;
    std::uint64_t bump;
    std::vector<Region> regionList;
    std::unordered_set<std::uint64_t> touchedPages;
};

} // namespace vic

#endif // VIC_OS_ADDRESS_SPACE_HH
