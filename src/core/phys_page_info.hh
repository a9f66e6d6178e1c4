/**
 * @file
 * Per-physical-page consistency bookkeeping (Section 4.1's data
 * structures and Table 3's encoding).
 *
 * For each resident physical page p the algorithm keeps, per cache:
 *
 *  - P[p].mapped — bit per cache page: which cache pages may contain
 *    data from p (set on CPU access through a virtual address of that
 *    colour);
 *  - P[p].stale  — bit per cache page: which cache pages may contain
 *    STALE data from p;
 *  - P[p].cache_dirty — p may be dirty in the (unique) mapped cache
 *    page (data cache only; the instruction cache is never dirty);
 *
 * plus the list of current virtual mappings of p. Table 3:
 *
 *      state    | mapped[c] | stale[c] | cache_dirty
 *      Empty    |   false   |  false   |     -
 *      Present  |   true    |  false   |   false
 *      Dirty    |   true    |  false   |   true
 *      Stale    |   false   |  true    |     -
 */

#ifndef VIC_CORE_PHYS_PAGE_INFO_HH
#define VIC_CORE_PHYS_PAGE_INFO_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitvector.hh"
#include "common/types.hh"
#include "core/cache_page_state.hh"
#include "mmu/page_table.hh"

namespace vic
{

/** The mapped/stale/dirty encoding for one physical page in one
 *  cache. */
class CacheStateVector
{
  public:
    CacheStateVector() = default;

    /** @param num_colours number of cache pages in this cache. */
    explicit CacheStateVector(std::uint32_t num_colours);

    std::uint32_t numColours() const { return mapped.size(); }

    BitVector mapped;
    BitVector stale;
    bool cacheDirty = false;

    /** Decode the Table 3 state of cache page @p colour. */
    CachePageState decode(CachePageId colour) const;

    /** The unique mapped cache page while cacheDirty is set — the
     *  paper's find_mapped_cache_page(). Must not be called unless
     *  cacheDirty. */
    CachePageId dirtyColour() const;

    /** Check the encoding invariants: mapped and stale are disjoint,
     *  and cacheDirty implies exactly one mapped bit. Panics on
     *  violation. */
    void checkInvariants() const;

    /** Reset to the all-empty (power-up / freshly-cleaned) state. */
    void clear();
};

/** One virtual mapping of a physical page. */
struct VaMapping
{
    SpaceVa va;           ///< page-aligned (space, virtual address)
    Protection vmProt;    ///< what the VM layer allows, before the
                          ///< cache state further restricts it
    /** The translation's page-table entry, as PageTable::enter
     *  returned it: the pmap reads and clears the modified bit and
     *  sets the protection through it, without a page-table walk.
     *  Valid while the mapping is listed — entries never move, a
     *  re-enter assigns in place, and the pmap erases the entry
     *  (Pmap::dropTranslation) only together with the mapping. */
    PageTableEntry *pte = nullptr;
};

/** Everything the machine-dependent layer knows about one physical
 *  page. */
class PhysPageInfo
{
  public:
    PhysPageInfo() = default;

    /** @param d_colours data-cache colour count
     *  @param i_colours instruction-cache colour count */
    PhysPageInfo(std::uint32_t d_colours, std::uint32_t i_colours);

    std::vector<VaMapping> mappings;
    CacheStateVector dstate;  ///< data-cache consistency state
    CacheStateVector istate;  ///< instruction-cache consistency state

    /** Find the mapping for @p va; nullptr if absent. */
    VaMapping *findMapping(SpaceVa va);
    const VaMapping *findMapping(SpaceVa va) const;

    /** Add a mapping (must not already exist) whose translation is
     *  @p pte. */
    void addMapping(SpaceVa va, Protection vm_prot, PageTableEntry *pte);

    /** Remove a mapping. @return true iff it existed. */
    bool removeMapping(SpaceVa va);

    bool hasMappings() const { return !mappings.empty(); }
};

} // namespace vic

#endif // VIC_CORE_PHYS_PAGE_INFO_HH
