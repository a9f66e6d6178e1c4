#include "os/page_preparer.hh"

#include "common/logging.hh"

namespace vic
{

namespace
{

/** RAII address-space switch for kernel-mode work. */
class SpaceGuard
{
  public:
    SpaceGuard(Cpu &c, SpaceId space) : cpu(c), saved(c.space())
    { cpu.setSpace(space); }
    ~SpaceGuard() { cpu.setSpace(saved); }

  private:
    Cpu &cpu;
    SpaceId saved;
};

} // anonymous namespace

PagePreparer::PagePreparer(Cpu &c, Pmap &p, const OsParams &os_params)
    : cpu(c), pmap(p), params(os_params),
      statZeroed(c.machine().stats().counter("os.pages_zeroed")),
      statCopied(c.machine().stats().counter("os.pages_copied"))
{
}

VirtAddr
PagePreparer::destWindow(std::optional<VirtAddr> ultimate_va) const
{
    if (pmap.config().alignedPrepare && ultimate_va) {
        const CachePageId colour = pmap.dColourOf(*ultimate_va);
        return VirtAddr(params.alignedPrepareBase +
                        std::uint64_t(colour) *
                            cpu.machine().pageBytes());
    }
    return VirtAddr(params.prepareDestBase);
}

VirtAddr
PagePreparer::srcWindow(FrameId src) const
{
    // Reading the source through an address aligned with wherever its
    // data currently sits avoids flushing it out of the cache first.
    if (pmap.config().alignedPrepare) {
        if (auto colour = pmap.preferredColour(src)) {
            return VirtAddr(params.copySrcBase +
                            std::uint64_t(*colour) *
                                cpu.machine().pageBytes());
        }
    }
    return VirtAddr(params.copySrcBase);
}

void
PagePreparer::zeroPage(FrameId frame, std::optional<VirtAddr> ultimate_va)
{
    ++statZeroed;
    const std::uint32_t page_bytes = cpu.machine().pageBytes();
    const VirtAddr kva = destWindow(ultimate_va);

    SpaceGuard guard(cpu, OsParams::kernelSpace);
    Pmap::EnterHints hints;
    hints.willOverwrite = true;  // the whole page is written below
    hints.needData = false;      // the frame's old contents are dead
    pmap.enter(SpaceVa(OsParams::kernelSpace, kva), frame,
               Protection::readWrite(), AccessType::Store, hints);
    cpu.storeRange(kva, page_bytes / 4, 4, 0, 0);
    pmap.remove(SpaceVa(OsParams::kernelSpace, kva));
}

void
PagePreparer::copyPage(FrameId dest, FrameId src,
                       std::optional<VirtAddr> ultimate_va)
{
    vic_assert(dest != src, "copyPage onto itself");
    ++statCopied;
    const std::uint32_t page_bytes = cpu.machine().pageBytes();
    const VirtAddr dst_kva = destWindow(ultimate_va);
    const VirtAddr src_kva = srcWindow(src);

    SpaceGuard guard(cpu, OsParams::kernelSpace);
    pmap.enter(SpaceVa(OsParams::kernelSpace, src_kva), src,
               Protection::readOnly(), AccessType::Load, {});
    Pmap::EnterHints hints;
    hints.willOverwrite = true;
    hints.needData = false;
    pmap.enter(SpaceVa(OsParams::kernelSpace, dst_kva), dest,
               Protection::readWrite(), AccessType::Store, hints);
    cpu.copyRange(dst_kva, src_kva, page_bytes / 4);
    pmap.remove(SpaceVa(OsParams::kernelSpace, src_kva));
    pmap.remove(SpaceVa(OsParams::kernelSpace, dst_kva));
}

} // namespace vic
