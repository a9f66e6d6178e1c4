#include "os/address_space.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vic
{

bool
Region::contains(VirtAddr va, std::uint32_t page_bytes) const
{
    return va.value >= start.value &&
           va.value < start.value + std::uint64_t(numPages) * page_bytes;
}

std::uint32_t
Region::pageIndexOf(VirtAddr va, std::uint32_t page_bytes) const
{
    vic_assert(contains(va, page_bytes), "va outside region");
    return static_cast<std::uint32_t>((va.value - start.value) /
                                      page_bytes);
}

AddressSpace::AddressSpace(SpaceId space_id, std::uint32_t page_bytes,
                           std::uint32_t num_colours,
                           VirtAddr dynamic_base)
    : spaceId(space_id), pageBytes(page_bytes), colours(num_colours),
      bump(dynamic_base.value)
{
    vic_assert(bump % page_bytes == 0,
               "dynamic base not page aligned");
}

Region *
AddressSpace::regionFor(VirtAddr va)
{
    for (auto &r : regionList) {
        if (r.contains(va, pageBytes))
            return &r;
    }
    return nullptr;
}

const Region *
AddressSpace::regionFor(VirtAddr va) const
{
    for (const auto &r : regionList) {
        if (r.contains(va, pageBytes))
            return &r;
    }
    return nullptr;
}

VirtAddr
AddressSpace::allocateVa(std::uint32_t pages,
                         std::optional<CachePageId> colour)
{
    std::uint64_t page_no = bump / pageBytes;
    if (colour) {
        vic_assert(*colour < colours, "colour %u out of range", *colour);
        const std::uint64_t cur = page_no % colours;
        page_no += (*colour + colours - cur) % colours;
    }
    const VirtAddr va(page_no * pageBytes);
    bump = (page_no + pages) * pageBytes;
    return va;
}

Region &
AddressSpace::createRegion(VirtAddr start, std::uint32_t pages,
                           Protection prot, Protection max_prot,
                           std::shared_ptr<VmObject> object,
                           std::uint64_t object_page_offset,
                           bool copy_on_write)
{
    vic_assert(start.value % pageBytes == 0, "region not page aligned");
    vic_assert(pages > 0, "empty region");
    vic_assert(object != nullptr, "region without object");
    vic_assert(object_page_offset + pages <= object->numPages(),
               "region exceeds object");
    for (std::uint32_t i = 0; i < pages; ++i) {
        vic_assert(regionFor(start.plus(std::uint64_t(i) * pageBytes)) ==
                       nullptr,
                   "overlapping region at %llx",
                   (unsigned long long)start.value);
    }

    Region r;
    r.start = start;
    r.numPages = pages;
    r.prot = prot;
    r.maxProt = max_prot;
    r.copyOnWrite = copy_on_write;
    r.object = std::move(object);
    r.objectPageOffset = object_page_offset;
    r.privatePages.resize(pages);
    regionList.push_back(std::move(r));
    return regionList.back();
}

Region
AddressSpace::removeRegion(VirtAddr start)
{
    auto it = std::find_if(regionList.begin(), regionList.end(),
                           [&](const Region &r) {
                               return r.start == start;
                           });
    vic_assert(it != regionList.end(), "no region at %llx",
               (unsigned long long)start.value);
    Region r = std::move(*it);
    regionList.erase(it);
    return r;
}

bool
AddressSpace::claimFirstAccess(VirtAddr page_va)
{
    return touchedPages.insert(page_va.value).second;
}

} // namespace vic
