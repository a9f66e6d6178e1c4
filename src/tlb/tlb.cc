#include "tlb/tlb.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace vic
{

Tlb::Tlb(std::uint32_t num_entries, Cycles miss_penalty, PageTable &table,
         CycleClock &clock, Counter &hits, Counter &misses)
    : capacity(num_entries), missPenalty(miss_penalty), pageTable(table),
      clk(clock), entries(num_entries), freeSlots((num_entries + 63) / 64),
      slotIndex(std::bit_ceil(std::uint64_t(num_entries) * 4), kNone),
      indexMask(static_cast<std::uint32_t>(slotIndex.size() - 1)),
      statHits(hits), statMisses(misses)
{
    vic_assert(num_entries > 0, "TLB needs at least one entry");
    invalidateAll();
}

PageTableEntry *
Tlb::translateFull(SpaceVa page)
{
    const std::uint64_t mixed = PageTable::mix(page);
    const std::uint32_t home = homeCell(mixed);
    const std::uint32_t cell = findCell(page, home);
    if (cell != kNone) {
        Entry &e = entries[slotIndex[cell]];
        e.lastUse = ++useTick;
        ++statHits;
        promote(&e);
        return e.pte;
    }

    PageTableEntry *pte = pageTable.walk(page, mixed);
    if (!pte)
        return nullptr;

    ++statMisses;
    clk.advance(missPenalty);

    const std::uint32_t slot = victimSlot();
    Entry &victim = entries[slot];
    if (isFree(slot))
        freeSlots[slot / 64] &= ~(std::uint64_t(1) << (slot % 64));
    else
        indexErase(cellOf(slot));
    victim.page = page;
    victim.lastUse = ++useTick;
    victim.pte = pte;
    victim.home = home;
    indexInsert(slot);
    // A victim named by the second pointer becomes the first; the old
    // first moves down, so neither pointer is left on a stale page.
    promote(&victim);
    return pte;
}

std::uint32_t
Tlb::victimSlot() const
{
    for (std::size_t w = 0; w < freeSlots.size(); ++w) {
        if (freeSlots[w] != 0)
            return static_cast<std::uint32_t>(
                w * 64 + static_cast<std::size_t>(
                             std::countr_zero(freeSlots[w])));
    }
    std::uint32_t victim = 0;
    for (std::uint32_t s = 1; s < capacity; ++s) {
        if (entries[s].lastUse < entries[victim].lastUse)
            victim = s;
    }
    return victim;
}

std::uint32_t
Tlb::cellOf(std::uint32_t slot) const
{
    for (std::uint32_t cell = entries[slot].home;;
         cell = (cell + 1) & indexMask) {
        if (slotIndex[cell] == slot)
            return cell;
        vic_assert(slotIndex[cell] != kNone,
                   "TLB slot %u missing from its index", slot);
    }
}

void
Tlb::indexInsert(std::uint32_t slot)
{
    std::uint32_t cell = entries[slot].home;
    while (slotIndex[cell] != kNone)
        cell = (cell + 1) & indexMask;
    slotIndex[cell] = slot;
}

void
Tlb::indexErase(std::uint32_t cell)
{
    // Walk the rest of the probe run. The slot in cell next moves back
    // into the hole unless its home lies cyclically in (hole, next]:
    // then the hole is before its home, where lookups never start.
    std::uint32_t hole = cell;
    for (std::uint32_t next = (cell + 1) & indexMask;
         slotIndex[next] != kNone; next = (next + 1) & indexMask) {
        const std::uint32_t home = entries[slotIndex[next]].home;
        if (((next - home) & indexMask) >= ((next - hole) & indexMask)) {
            slotIndex[hole] = slotIndex[next];
            hole = next;
        }
    }
    slotIndex[hole] = kNone;
}

void
Tlb::invalidateSlot(std::uint32_t slot, std::uint32_t cell)
{
    Entry &e = entries[slot];
    indexErase(cell);
    freeSlots[slot / 64] |= std::uint64_t(1) << (slot % 64);
    e.pte = nullptr;
    if (mru == &e)
        mru = nullptr;
    if (mru2 == &e)
        mru2 = nullptr;
}

void
Tlb::invalidatePage(SpaceVa key)
{
    const SpaceVa page(key.space, pageTable.pageBase(key.va));
    const std::uint32_t cell =
        findCell(page, homeCell(PageTable::mix(page)));
    if (cell != kNone)
        invalidateSlot(slotIndex[cell], cell);
}

void
Tlb::invalidateSpace(SpaceId space)
{
    for (std::uint32_t s = 0; s < capacity; ++s) {
        if (!isFree(s) && entries[s].page.space == space)
            invalidateSlot(s, cellOf(s));
    }
}

void
Tlb::invalidateAll()
{
    for (auto &e : entries)
        e.pte = nullptr;
    std::fill(slotIndex.begin(), slotIndex.end(), kNone);
    std::fill(freeSlots.begin(), freeSlots.end(), 0);
    for (std::uint32_t s = 0; s < capacity; ++s)
        freeSlots[s / 64] |= std::uint64_t(1) << (s % 64);
    mru = nullptr;
    mru2 = nullptr;
}

std::uint32_t
Tlb::validCount() const
{
    std::uint32_t invalid = 0;
    for (const std::uint64_t w : freeSlots)
        invalid += static_cast<std::uint32_t>(std::popcount(w));
    return capacity - invalid;
}

} // namespace vic
