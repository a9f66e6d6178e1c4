#include "mc/event.hh"

#include <algorithm>

namespace vic::mc
{

const char *
memoryOrderName(MemoryOrder order)
{
    switch (order) {
      case MemoryOrder::SC: return "sc";
      case MemoryOrder::WeakStoreOrder: return "weak";
    }
    return "?";
}

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::CpuLoad: return "load";
      case OpKind::CpuStore: return "store";
      case OpKind::CpuIFetch: return "ifetch";
      case OpKind::PmapDmaRead: return "pmap-dma-read";
      case OpKind::PmapDmaWrite: return "pmap-dma-write";
      case OpKind::PmapUnmap: return "pmap-unmap";
      case OpKind::BusyAcquire: return "busy-acquire";
      case OpKind::BusyRelease: return "busy-release";
      case OpKind::DmaStartRead: return "dma-start-read";
      case OpKind::DmaStartWrite: return "dma-start-write";
      case OpKind::DmaWait: return "dma-wait";
      case OpKind::DmaBeat: return "dma-beat";
      case OpKind::Fence: return "fence";
      case OpKind::StoreDrain: return "sb-drain";
    }
    return "?";
}

void
Footprint::addLine(std::vector<std::uint64_t> &set, std::uint64_t line)
{
    auto it = std::lower_bound(set.begin(), set.end(), line);
    if (it == set.end() || *it != line)
        set.insert(it, line);
}

void
Footprint::addFrame(std::vector<std::uint64_t> &set, std::uint64_t frame)
{
    addLine(set, frame);
}

bool
setsIntersect(const std::vector<std::uint64_t> &a,
              const std::vector<std::uint64_t> &b)
{
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j])
            return true;
        if (a[i] < b[j])
            ++i;
        else
            ++j;
    }
    return false;
}

std::uint64_t
conflictingLine(const Footprint &a, const Footprint &b)
{
    auto firstShared = [](const std::vector<std::uint64_t> &x,
                          const std::vector<std::uint64_t> &y)
        -> std::uint64_t {
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < x.size() && j < y.size()) {
            if (x[i] == y[j])
                return x[i];
            if (x[i] < y[j])
                ++i;
            else
                ++j;
        }
        return ~std::uint64_t(0);
    };
    std::uint64_t line = firstShared(a.writeLines, b.writeLines);
    if (line == ~std::uint64_t(0))
        line = firstShared(a.writeLines, b.readLines);
    if (line == ~std::uint64_t(0))
        line = firstShared(a.readLines, b.writeLines);
    return line;
}

bool
dependent(const Footprint &a, const Footprint &b)
{
    if (a.pmapOp && b.pmapOp)
        return true;
    if (a.sbOp && b.sbOp && a.sbCpu == b.sbCpu)
        return true;
    if ((a.busyOp() || b.busyOp() || (a.storeIssue && b.unmap) ||
         (a.unmap && b.storeIssue)) &&
        setsIntersect(a.frames, b.frames))
        return true;
    if (conflictingLine(a, b) != ~std::uint64_t(0))
        return true;
    if ((a.dmaAccess && b.cpuData) || (b.dmaAccess && a.cpuData))
        return true;
    if (a.cpuData && b.cpuData && a.cpu == b.cpu && a.inst == b.inst &&
        a.colour == b.colour)
        return true;
    return false;
}

} // namespace vic::mc
