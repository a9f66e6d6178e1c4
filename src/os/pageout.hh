/**
 * @file
 * Pageout daemon: physical page reclamation through a swap area.
 *
 * When the free page pool runs low, resident pages are evicted FIFO.
 * An anonymous page runs the swap-out table (os/disk_transfer.hh):
 * the frame is wired, every translation is removed through the pmap,
 * dirty cache data is flushed (the DMA-read consistency step — the
 * device must see current bytes), and the page is written to a swap
 * block by DMA. A later touch pages it back in with a DMA-write,
 * whose consistency step keeps stale cached copies from shadowing the
 * fresh data. File-backed (program text) pages are simply unmapped
 * and dropped: they can be re-copied from the buffer cache, so they
 * cost no swap write.
 *
 * Pageout is exactly the path where the paper notes a system can use
 * "the fact that a physical page is dirty to avoid a redundant cache
 * flush" — here the pmap's consistency state (or modified bits, for
 * the classic strategies) makes the flush-vs-skip decision.
 */

#ifndef VIC_OS_PAGEOUT_HH
#define VIC_OS_PAGEOUT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "os/vm_object.hh"

namespace vic
{

class Kernel;

class PageoutDaemon
{
  public:
    /** Disk block namespace for swap (disjoint from file blocks). */
    static constexpr std::uint64_t swapBlockBase = std::uint64_t(1)
                                                   << 32;

    explicit PageoutDaemon(Kernel &k);

    /** Announce that (@p object, @p page) became resident in
     *  @p frame and may be reclaimed. */
    void registerPageable(const std::shared_ptr<VmObject> &object,
                          std::uint64_t page, FrameId frame);

    /** Pin @p frame against reclamation (e.g. the source of an
     *  in-progress page copy). */
    void wire(FrameId frame);

    /** Release a wire() pin. */
    void unwire(FrameId frame);

    /** Evict pages until the free pool reaches the high-water mark
     *  (or no candidates remain). Re-entrancy safe (no-op inside an
     *  ongoing reclaim). */
    void reclaim();

    /** Free the swap blocks held by a dying object. */
    void releaseSwap(VmObject &object);

    /** Take a fresh swap block (page-in hands the old one back). */
    std::uint64_t allocSwapBlock();
    void freeSwapBlock(std::uint64_t block);

  private:
    struct Candidate
    {
        std::weak_ptr<VmObject> object;
        std::uint64_t page;
        FrameId frame;
    };

    Kernel &kernel;
    std::deque<Candidate> fifo;
    std::unordered_set<FrameId> wired;
    std::vector<std::uint64_t> freeSwap;
    std::uint64_t nextSwap = swapBlockBase;
    bool reclaiming = false;

    Counter &statPageouts;
    Counter &statTextDrops;
    Counter &statSwapWrites;

    /** Try to evict one candidate. @return true iff a frame was
     *  freed. */
    bool pageOut(const Candidate &c);
};

} // namespace vic

#endif // VIC_OS_PAGEOUT_HH
