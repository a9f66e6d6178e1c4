#include "tlb/tlb.hh"

#include "common/logging.hh"

namespace vic
{

Tlb::Tlb(std::uint32_t num_entries, Cycles miss_penalty, PageTable &table,
         CycleClock &clock, Counter &hits, Counter &misses)
    : capacity(num_entries), missPenalty(miss_penalty), pageTable(table),
      clk(clock), entries(num_entries), statHits(hits), statMisses(misses)
{
    vic_assert(num_entries > 0, "TLB needs at least one entry");
    slotIndex.reserve(num_entries * 2);
}

PageTableEntry *
Tlb::translateFull(SpaceVa page)
{
    auto it = slotIndex.find(page);
    if (it != slotIndex.end()) {
        Entry &e = entries[it->second];
        e.lastUse = ++useTick;
        ++statHits;
        promote(&e);
        return e.pte;
    }

    PageTableEntry *pte = pageTable.lookupMutable(page);
    if (!pte)
        return nullptr;

    ++statMisses;
    clk.advance(missPenalty);

    Entry *victim = nullptr;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (auto &e : entries) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < oldest) {
            oldest = e.lastUse;
            victim = &e;
        }
    }
    if (victim->valid)
        slotIndex.erase(victim->page);
    victim->valid = true;
    victim->page = page;
    victim->lastUse = ++useTick;
    victim->pte = pte;
    slotIndex.emplace(
        page, static_cast<std::uint32_t>(victim - entries.data()));
    // A victim named by the second pointer becomes the first; the old
    // first moves down, so neither pointer is left on a stale page.
    promote(victim);
    return pte;
}

void
Tlb::invalidateSlot(Entry &e)
{
    e.valid = false;
    e.pte = nullptr;
    slotIndex.erase(e.page);
    if (mru == &e)
        mru = nullptr;
    if (mru2 == &e)
        mru2 = nullptr;
}

void
Tlb::invalidatePage(SpaceVa key)
{
    const SpaceVa page(key.space, pageTable.pageBase(key.va));
    auto it = slotIndex.find(page);
    if (it != slotIndex.end())
        invalidateSlot(entries[it->second]);
}

void
Tlb::invalidateSpace(SpaceId space)
{
    for (auto &e : entries) {
        if (e.valid && e.page.space == space)
            invalidateSlot(e);
    }
}

void
Tlb::invalidateAll()
{
    for (auto &e : entries) {
        e.valid = false;
        e.pte = nullptr;
    }
    slotIndex.clear();
    mru = nullptr;
    mru2 = nullptr;
}

std::uint32_t
Tlb::validCount() const
{
    std::uint32_t n = 0;
    for (const auto &e : entries)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace vic
