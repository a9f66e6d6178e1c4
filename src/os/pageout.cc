#include "os/pageout.hh"

#include "common/logging.hh"
#include "os/kernel.hh"

namespace vic
{

PageoutDaemon::PageoutDaemon(Kernel &k)
    : kernel(k),
      statPageouts(k.machine().stats().counter("os.pageouts")),
      statTextDrops(k.machine().stats().counter("os.text_drops")),
      statSwapWrites(k.machine().stats().counter("os.swap_writes"))
{
}

void
PageoutDaemon::registerPageable(const std::shared_ptr<VmObject> &object,
                                std::uint64_t page, FrameId frame)
{
    fifo.push_back(Candidate{object, page, frame});
}

void
PageoutDaemon::wire(FrameId frame)
{
    wired.insert(frame);
}

void
PageoutDaemon::unwire(FrameId frame)
{
    wired.erase(frame);
}

std::uint64_t
PageoutDaemon::allocSwapBlock()
{
    if (!freeSwap.empty()) {
        std::uint64_t b = freeSwap.back();
        freeSwap.pop_back();
        return b;
    }
    return nextSwap++;
}

void
PageoutDaemon::freeSwapBlock(std::uint64_t block)
{
    vic_assert(block >= swapBlockBase, "freeing non-swap block");
    freeSwap.push_back(block);
}

void
PageoutDaemon::releaseSwap(VmObject &object)
{
    for (std::uint64_t b : object.swapBlocks())
        freeSwapBlock(b);
    for (std::uint64_t p = 0; p < object.numPages(); ++p)
        object.clearSwapBlock(p);
}

bool
PageoutDaemon::pageOut(const Candidate &c)
{
    std::shared_ptr<VmObject> obj = c.object.lock();
    if (!obj)
        return false;  // the object died; the frame was freed already
    auto resident = obj->frameAt(c.page);
    if (!resident || *resident != c.frame)
        return false;  // reused or already evicted
    if (wired.count(c.frame))
        return false;  // pinned by an in-progress operation

    Machine &m = kernel.machine();

    if (obj->backing() == VmObject::Backing::File) {
        // Text and mapped-file pages are clean copies of file data:
        // unmap and drop them; a refault re-copies from the buffer
        // cache.
        Pmap &pmap = kernel.pmap();
        for (const SpaceVa &va : pmap.mappingsOf(c.frame))
            pmap.remove(va);
        ++statTextDrops;
    } else {
        // Anonymous page: write to swap. Under the guard, the swap-out
        // table removes every translation, then its DMA-read
        // consistency step flushes whatever dirty cache data the page
        // still has (the interleaving checker, src/mc, runs the same
        // table).
        const std::uint64_t block = allocSwapBlock();
        kernel.diskTransfer(c.frame, block, kSwapOut);
        obj->setSwapBlock(c.page, block);
        ++statSwapWrites;
    }

    obj->clearFrame(c.page);
    kernel.freeFrame(c.frame);
    ++statPageouts;
    VIC_EVLOG(m.events(),
              format("pageout frame=%llu (%s)",
                     (unsigned long long)c.frame,
                     obj->backing() == VmObject::Backing::File
                         ? "dropped"
                         : "swapped"));
    return true;
}

void
PageoutDaemon::reclaim()
{
    if (reclaiming)
        return;
    reclaiming = true;
    const std::uint64_t target = kernel.params().pageoutHighWater;
    while (kernel.freeFrames() < target && !fifo.empty()) {
        Candidate c = fifo.front();
        fifo.pop_front();
        pageOut(c);
    }
    reclaiming = false;
}

} // namespace vic
