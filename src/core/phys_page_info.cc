#include "core/phys_page_info.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vic
{

CacheStateVector::CacheStateVector(std::uint32_t num_colours)
    : mapped(num_colours), stale(num_colours)
{
}

CachePageState
CacheStateVector::decode(CachePageId colour) const
{
    const bool m = mapped.test(colour);
    const bool s = stale.test(colour);
    vic_assert(!(m && s), "colour %u both mapped and stale", colour);
    if (s)
        return CachePageState::Stale;
    if (!m)
        return CachePageState::Empty;
    if (cacheDirty && dirtyColour() == colour)
        return CachePageState::Dirty;
    return CachePageState::Present;
}

CachePageId
CacheStateVector::dirtyColour() const
{
    vic_assert(cacheDirty, "dirtyColour() without cacheDirty");
    const std::uint32_t first = mapped.findFirst();
    vic_assert(first < mapped.size(), "cacheDirty with no mapped colour");
    return first;
}

void
CacheStateVector::checkInvariants() const
{
    // One word operation per 64 colours; the per-colour loop runs only
    // to name the colour in the panic.
    if (mapped.intersects(stale)) [[unlikely]] {
        for (std::uint32_t c = 0; c < mapped.size(); ++c) {
            vic_assert(!(mapped.test(c) && stale.test(c)),
                       "colour %u both mapped and stale", c);
        }
    }
    if (cacheDirty) {
        vic_assert(mapped.exactlyOne(),
                   "cacheDirty with %u mapped colours (must be 1)",
                   mapped.count());
    }
}

void
CacheStateVector::clear()
{
    mapped.clearAll();
    stale.clearAll();
    cacheDirty = false;
}

PhysPageInfo::PhysPageInfo(std::uint32_t d_colours,
                           std::uint32_t i_colours)
    : dstate(d_colours), istate(i_colours)
{
}

VaMapping *
PhysPageInfo::findMapping(SpaceVa va)
{
    for (auto &m : mappings) {
        if (m.va == va)
            return &m;
    }
    return nullptr;
}

const VaMapping *
PhysPageInfo::findMapping(SpaceVa va) const
{
    for (const auto &m : mappings) {
        if (m.va == va)
            return &m;
    }
    return nullptr;
}

void
PhysPageInfo::addMapping(SpaceVa va, Protection vm_prot,
                         PageTableEntry *pte)
{
    vic_assert(findMapping(va) == nullptr,
               "duplicate mapping space=%u va=%llx", va.space,
               (unsigned long long)va.va.value);
    mappings.push_back(VaMapping{va, vm_prot, pte});
}

bool
PhysPageInfo::removeMapping(SpaceVa va)
{
    auto it = std::find_if(mappings.begin(), mappings.end(),
                           [&](const VaMapping &m) { return m.va == va; });
    if (it == mappings.end())
        return false;
    mappings.erase(it);
    return true;
}

} // namespace vic
