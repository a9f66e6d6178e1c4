/**
 * @file
 * Translation lookaside buffer.
 *
 * A fully associative translation cache over the page table, with LRU
 * replacement. On the modelled machine the TLB translates virtual page
 * frames to physical page frames in parallel with (virtually indexed)
 * cache lookup, so a TLB hit adds no cycles; only misses charge a
 * refill penalty. The pmap layer must shoot down entries whenever it
 * changes a translation or protection — the paper notes that on unmap
 * "other structures, however, such as TLB and page table entries, must
 * be invalidated to deny access to the data in the memory system"
 * (Section 2.3).
 *
 * This is stage 1 of the access pipeline (DESIGN.md "Access
 * pipeline"): translate() hands back a *mutable* page-table-entry
 * handle so the CPU can set referenced/modified bits directly,
 * without a second page-table walk per access. Each TLB entry caches
 * that handle. The handle stays valid because (a) the page table is a
 * node-based map — entries never move on insert, and enter() on a
 * mapped page assigns in place — and (b) every path that erases an
 * entry (Pmap::dropTranslation) shoots the TLB down first, so a
 * cached handle can never outlive its entry. Protection changes
 * mutate the entry in place and are therefore seen through the handle
 * immediately, preserving the historic read-through behaviour.
 *
 * The hot path checks the two most recently used entries (an MRU
 * pair) before a page -> slot index: consecutive accesses to one
 * page, and loops that alternate between two pages (a page copy),
 * resolve with one or two compares — no hashing, no scan. The pair is
 * a lookup shortcut only: every hit still bumps the hit counter and
 * the entry's LRU tick, so the full-associativity LRU semantics
 * (victim = first invalid slot, else least recent) are unchanged.
 *
 * The index is a flat open-addressed table of slot numbers, at least
 * four cells per entry, probed linearly from the page table's fixed
 * key mix (PageTable::mix) and kept free of tombstones by
 * backward-shift deletion. A refill mixes its key once, for the index
 * probe, the page-table walk and the insert; each entry keeps its
 * home cell, so a deletion's backward shift and an eviction find
 * cells without mixing again, and a shootdown erases the cell its one
 * probe found. A bitmap of free slots gives a refill the lowest
 * invalid slot with one countr_zero per 64 slots. Neither allocates
 * after construction, and both depend only on the sequence of calls,
 * never on the host.
 *
 * tests/tlb_lockstep_test.cc runs the TLB beside a linear-scan LRU
 * model. A CPU line run charges its repeated hits on the MRU entry in
 * one repeatHit() call, and a CPU copy run its alternating (source,
 * destination) pairs on the MRU pair in one repeatPair() call, once
 * copyPair() has found the pair in place.
 */

#ifndef VIC_TLB_TLB_HH
#define VIC_TLB_TLB_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/cycle_clock.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mmu/page_table.hh"

namespace vic
{

class Tlb
{
  public:
    /**
     * @param num_entries capacity (fully associative)
     * @param miss_penalty cycles charged on a refill
     * @param table     backing page table
     * @param clock     cycle clock
     * @param hits      counter bumped per hit (the owner registers
     *                  it; per-CPU TLBs share one)
     * @param misses    counter bumped per refill
     */
    Tlb(std::uint32_t num_entries, Cycles miss_penalty, PageTable &table,
        CycleClock &clock, Counter &hits, Counter &misses);

    /**
     * Translate the page containing @p key.va, refilling from the page
     * table on a miss. @return a mutable handle to the current
     * page-table entry (the access pipeline sets referenced/modified
     * through it), or nullptr if the page is unmapped (the caller
     * raises a fault).
     */
    PageTableEntry *
    translate(SpaceVa key)
    {
        const SpaceVa page(key.space, pageTable.pageBase(key.va));
        if (mru != nullptr && mru->page == page) {
            mru->lastUse = ++useTick;
            ++statHits;
            return mru->pte;
        }
        if (mru2 != nullptr && mru2->page == page) {
            std::swap(mru, mru2);
            mru->lastUse = ++useTick;
            ++statHits;
            return mru->pte;
        }
        return translateFull(page);
    }

    /**
     * Charge @p n more hits on the page containing @p key.va, which
     * the translation just before left most recently used: exactly
     * what @p n translate() calls of that page would add.
     * @return its page-table-entry handle.
     */
    PageTableEntry *
    repeatHit(SpaceVa key, std::uint32_t n)
    {
        vic_assert(mru != nullptr &&
                       mru->page == SpaceVa(key.space,
                                            pageTable.pageBase(key.va)),
                   "repeated TLB hit on a page that is not the MRU entry");
        useTick += n;
        mru->lastUse = useTick;
        statHits += n;
        return mru->pte;
    }

    /**
     * The handles of a copy's pages, if the pair of translations just
     * before was a load of @p src then a store to @p dst on another
     * page: the MRU entry holds @p dst's page and the second holds
     * @p src's, so each further (@p src, @p dst) pair hits the second
     * pointer and swaps the two back. Null handles otherwise (one
     * page, or the pair not in place, as always on a 1-entry TLB).
     * No accounting; repeatPair() charges.
     */
    std::pair<PageTableEntry *, PageTableEntry *>
    copyPair(SpaceVa dst, SpaceVa src) const
    {
        // Two entries never hold one page, so this also proves the
        // pages distinct.
        if (mru == nullptr || mru2 == nullptr ||
            mru->page != SpaceVa(dst.space, pageTable.pageBase(dst.va)) ||
            mru2->page != SpaceVa(src.space, pageTable.pageBase(src.va)))
            return {nullptr, nullptr};
        return {mru->pte, mru2->pte};
    }

    /**
     * Charge @p n more (source, destination) pairs on the pair
     * copyPair() found: exactly what 2 @p n alternating translate()
     * calls add — 2 @p n hits, the source stamped one tick before the
     * destination, and both pointers back where they were.
     */
    void
    repeatPair(std::uint32_t n)
    {
        useTick += 2 * std::uint64_t(n);
        mru2->lastUse = useTick - 1;
        mru->lastUse = useTick;
        statHits += 2 * std::uint64_t(n);
    }

    /** Drop the cached entry for one page, if any. */
    void invalidatePage(SpaceVa key);

    /** Drop all cached entries for @p space. */
    void invalidateSpace(SpaceId space);

    /** Drop everything. */
    void invalidateAll();

    /** Number of currently valid entries (for tests). */
    std::uint32_t validCount() const;

    /** True iff the page containing @p key.va has a valid entry; no
     *  accounting (for tests). */
    bool holds(SpaceVa key) const
    {
        const SpaceVa page(key.space, pageTable.pageBase(key.va));
        return findCell(page, homeCell(PageTable::mix(page))) != kNone;
    }

  private:
    struct Entry
    {
        SpaceVa page;
        std::uint64_t lastUse = 0;
        PageTableEntry *pte = nullptr; ///< cached handle (see file doc)
        std::uint32_t home = 0;        ///< index cell its page mixes to
    };

    /** An empty index cell; also "no cell" from findCell(). */
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);

    std::uint32_t capacity;
    Cycles missPenalty;
    PageTable &pageTable;
    CycleClock &clk;

    std::vector<Entry> entries;
    std::uint64_t useTick = 0;

    /** Bit s (word s / 64, bit s % 64) is set iff entries[s] is
     *  invalid; bits past the capacity stay clear. */
    std::vector<std::uint64_t> freeSlots;

    /** The most and second most recently used entries; entries
     *  never reallocates, so the pointers are stable. A non-null
     *  pointer always names a valid entry: every invalidation clears
     *  the pointers to the entries it drops, and translate() relies on
     *  that (it compares pages only). */
    Entry *mru = nullptr;
    Entry *mru2 = nullptr;

    /** page -> slot: a power-of-two table of slot numbers (kNone =
     *  empty) holding exactly the valid slots, each at or after its
     *  page's home cell with no empty cell in between. */
    std::vector<std::uint32_t> slotIndex;
    std::uint32_t indexMask;

    Counter &statHits;
    Counter &statMisses;

    /** Hit-via-index and miss/refill paths (out of line). */
    PageTableEntry *translateFull(SpaceVa page);

    bool isFree(std::uint32_t slot) const
    { return (freeSlots[slot / 64] >> (slot % 64)) & 1; }

    /** The index cell a page whose PageTable::mix is @p mixed hashes
     *  to. */
    std::uint32_t homeCell(std::uint64_t mixed) const
    { return static_cast<std::uint32_t>(mixed) & indexMask; }

    /** The index cell holding @p page's slot, or kNone; @p home is
     *  its home cell. */
    std::uint32_t
    findCell(SpaceVa page, std::uint32_t home) const
    {
        for (std::uint32_t cell = home;; cell = (cell + 1) & indexMask) {
            const std::uint32_t slot = slotIndex[cell];
            if (slot == kNone)
                return kNone;
            if (entries[slot].page == page)
                return cell;
        }
    }

    /** The index cell holding valid slot @p slot, probed from the
     *  entry's kept home cell by slot number. */
    std::uint32_t cellOf(std::uint32_t slot) const;

    /** Enter valid slot @p slot under its page. */
    void indexInsert(std::uint32_t slot);

    /** Empty index cell @p cell, shifting later cells of its probe run
     *  back so every lookup still reaches its page. */
    void indexErase(std::uint32_t cell);

    /** The refill victim: the first invalid slot, else the least
     *  recently used. */
    std::uint32_t victimSlot() const;

    /** Make @p e the most recently used entry. */
    void
    promote(Entry *e)
    {
        if (e != mru) {
            mru2 = mru;
            mru = e;
        }
    }

    /** Invalidate valid slot @p slot, whose index cell is @p cell. */
    void invalidateSlot(std::uint32_t slot, std::uint32_t cell);
};

} // namespace vic

#endif // VIC_TLB_TLB_HH
