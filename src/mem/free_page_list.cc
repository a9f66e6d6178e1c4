#include "mem/free_page_list.hh"

#include "common/logging.hh"

namespace vic
{

FreePageList::FreePageList(Organisation organisation,
                           std::uint32_t num_colours)
    : org(organisation), colours(num_colours)
{
    vic_assert(num_colours > 0, "free page list needs >= 1 colour");
    if (org == Organisation::Single)
        lists.resize(1);
    else
        lists.resize(colours + 1); // +1 for colourless frames
}

void
FreePageList::free(FrameId frame, std::optional<CachePageId> last_colour)
{
    std::size_t idx = 0;
    if (org == Organisation::PerColour) {
        if (last_colour) {
            vic_assert(*last_colour < colours, "colour %u out of range",
                       *last_colour);
            idx = *last_colour;
        } else {
            idx = colours;
        }
    }
    if (frame >= pool.size())
        pool.resize(frame + 1);
    Node &n = pool[frame];
    vic_assert(!n.queued, "double free of frame %llu",
               (unsigned long long)frame);
    n.next = kNil;
    n.lastColour = last_colour;
    n.queued = true;
    Fifo &f = lists[idx];
    if (f.tail == kNil)
        f.head = frame;
    else
        pool[f.tail].next = frame;
    f.tail = frame;
    ++total;
}

std::optional<FreePageList::Allocation>
FreePageList::popFrom(std::size_t idx)
{
    Fifo &f = lists[idx];
    if (f.head == kNil)
        return std::nullopt;
    const std::uint64_t frame = f.head;
    Node &n = pool[frame];
    f.head = n.next;
    if (f.head == kNil)
        f.tail = kNil;
    n.next = kNil;
    n.queued = false;
    --total;
    return Allocation{FrameId(frame), n.lastColour};
}

std::optional<FreePageList::Allocation>
FreePageList::allocate(std::optional<CachePageId> wanted_colour)
{
    if (total == 0)
        return std::nullopt;

    if (org == Organisation::Single) {
        auto alloc = popFrom(0);
        if (wanted_colour && alloc) {
            if (alloc->lastColour && *alloc->lastColour == *wanted_colour)
                ++hits;
            else
                ++misses;
        }
        return alloc;
    }

    // PerColour: try the wanted colour first, then colourless frames,
    // then steal from the lowest-numbered colour that has frames.
    if (wanted_colour) {
        vic_assert(*wanted_colour < colours, "colour %u out of range",
                   *wanted_colour);
        if (auto alloc = popFrom(*wanted_colour)) {
            ++hits;
            return alloc;
        }
        if (auto alloc = popFrom(colours)) {
            ++hits; // colourless frames have no stale footprint anywhere
            return alloc;
        }
    } else {
        if (auto alloc = popFrom(colours))
            return alloc;
    }

    for (std::size_t i = 0; i < lists.size(); ++i) {
        if (auto alloc = popFrom(i)) {
            if (wanted_colour)
                ++misses;
            return alloc;
        }
    }
    vic_panic("free page list total %llu but all lists empty",
              (unsigned long long)total);
}

} // namespace vic
