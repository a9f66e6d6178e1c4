#include "os/buffer_cache.hh"

#include "common/logging.hh"
#include "os/kernel.hh"

namespace vic
{

BufferCache::BufferCache(Kernel &k, const OsParams &os_params)
    : kernel(k), params(os_params), slots(os_params.bufferCacheSlots),
      statHits(k.machine().stats().counter("bcache.hits")),
      statMisses(k.machine().stats().counter("bcache.misses")),
      statWriteBacks(k.machine().stats().counter("bcache.write_backs"))
{
}

VirtAddr
BufferCache::slotKva(std::uint32_t slot) const
{
    return VirtAddr(params.bufferCacheBase +
                    std::uint64_t(slot) * kernel.machine().pageBytes());
}

int
BufferCache::findSlot(FileId file, std::uint64_t block) const
{
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        if (slots[i].valid && slots[i].file == file &&
            slots[i].block == block)
            return static_cast<int>(i);
    }
    return -1;
}

void
BufferCache::ensureSlotBacking(std::uint32_t slot)
{
    Slot &s = slots[slot];
    if (s.frameAllocated)
        return;
    const VirtAddr kva = slotKva(slot);
    s.frame = kernel.allocFrame(kernel.pmap().dColourOf(kva));
    s.frameAllocated = true;
    // Buffers live in a real server region so that accesses fault in
    // their mapping on demand — and can re-fault it if the consistency
    // policy ever breaks it (e.g. when a transient kernel copy mapping
    // aliases the buffer frame under an eager policy).
    s.object = std::make_shared<VmObject>(VmObject::anonymous(1));
    s.object->setFrame(0, s.frame);
    kernel.serverAddressSpace().createRegion(
        kva, 1, Protection::readWrite(), Protection::readWrite(),
        s.object, 0, false);
}

void
BufferCache::recycleSlotFrame(std::uint32_t slot)
{
    // A refilled buffer gets a fresh page from the kernel's free list
    // and returns its old one, as the original server's page-based
    // buffer cache did. Recycled pages arrive with whatever cache
    // residue their previous life left (under lazy policies), so the
    // fill's DMA-write exercises the dirty-page purge path.
    Slot &s = slots[slot];
    if (!s.recycled) {
        // First fill after allocation: the frame is already fresh.
        s.recycled = true;
        return;
    }
    const VirtAddr kva = slotKva(slot);
    kernel.pmap().remove(SpaceVa(OsParams::serverSpace, kva));
    s.object->clearFrame(0);
    kernel.freeFrame(s.frame);
    s.frame = kernel.allocFrame(kernel.pmap().dColourOf(kva));
    s.object->setFrame(0, s.frame);
    // Re-establish the mapping now: the transfer that follows must see
    // the buffer as mapped so the DMA consistency step can protect (or
    // purge) the cached copies the mapping implies. The recycled
    // frame's previous contents are dead and the fill overwrites the
    // whole block, so the semantic hints apply.
    Pmap::EnterHints hints;
    hints.willOverwrite = true;
    hints.needData = false;
    kernel.pmap().enter(SpaceVa(OsParams::serverSpace, kva), s.frame,
                        Protection::readWrite(), AccessType::Load,
                        hints);
}

void
BufferCache::flushSlot(std::uint32_t slot)
{
    Slot &s = slots[slot];
    vic_assert(s.valid && s.dirty, "flush of clean slot");
    ++statWriteBacks;
    kernel.diskTransfer(s.frame, kernel.fs().diskBlockFor(s.file, s.block),
                        kWriteBack);
    s.dirty = false;
}

void
BufferCache::fillSlot(std::uint32_t slot, FileId file,
                      std::uint64_t block, bool whole_block_write)
{
    Slot &s = slots[slot];
    const auto disk_block = kernel.fs().diskBlockIfAny(file, block);

    if (disk_block && !whole_block_write) {
        kernel.diskTransfer(s.frame, *disk_block, kFill);
    } else if (!disk_block && !whole_block_write) {
        // A block that has never been written reads as zeros; the
        // server zeroes the buffer through its mapping.
        Cpu &cpu = kernel.cpu();
        const SpaceId saved = cpu.space();
        cpu.setSpace(OsParams::serverSpace);
        cpu.storeRange(slotKva(slot), kernel.machine().pageBytes() / 4, 4,
                       0, 0);
        cpu.setSpace(saved);
    }
    // whole_block_write: the caller overwrites every byte, no fill.

    s.valid = true;
    s.file = file;
    s.block = block;
    s.dirty = false;
}

std::uint32_t
BufferCache::reclaimSlot()
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].valid)
            return i;
        if (slots[i].lastUse < oldest) {
            oldest = slots[i].lastUse;
            victim = i;
        }
    }
    if (slots[victim].dirty)
        flushSlot(victim);
    slots[victim].valid = false;
    return victim;
}

BufferCache::BufferRef
BufferCache::getBlock(FileId file, std::uint64_t block, bool for_write,
                      bool whole_block_write)
{
    int idx = findSlot(file, block);
    if (idx < 0) {
        ++statMisses;
        const std::uint32_t slot = reclaimSlot();
        ensureSlotBacking(slot);
        recycleSlotFrame(slot);
        fillSlot(slot, file, block, for_write && whole_block_write);
        idx = static_cast<int>(slot);
    } else {
        ++statHits;
    }
    Slot &s = slots[static_cast<std::uint32_t>(idx)];
    s.lastUse = ++useTick;
    if (for_write) {
        if (!s.dirty)
            s.dirtiedAt = useTick;
        s.dirty = true;
    }
    return BufferRef{s.frame, slotKva(static_cast<std::uint32_t>(idx))};
}

void
BufferCache::sync()
{
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        if (slots[i].valid && slots[i].dirty)
            flushSlot(i);
    }
}

void
BufferCache::writeBehind()
{
    while (dirtyCount() > params.writeBehindThreshold) {
        std::uint32_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t i = 0; i < slots.size(); ++i) {
            if (slots[i].valid && slots[i].dirty &&
                slots[i].dirtiedAt < oldest) {
                oldest = slots[i].dirtiedAt;
                victim = i;
            }
        }
        flushSlot(victim);
    }
}

void
BufferCache::invalidateFile(FileId file)
{
    for (auto &s : slots) {
        if (s.valid && s.file == file) {
            s.valid = false;
            s.dirty = false;
        }
    }
}

std::uint32_t
BufferCache::dirtyCount() const
{
    std::uint32_t n = 0;
    for (const auto &s : slots)
        n += (s.valid && s.dirty) ? 1 : 0;
    return n;
}

} // namespace vic
