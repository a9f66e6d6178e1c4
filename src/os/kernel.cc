#include "os/kernel.hh"

#include <utility>

#include "common/logging.hh"

namespace vic
{

namespace
{

/** RAII address-space switch. */
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

Kernel::Kernel(Machine &m, const PolicyConfig &policy,
               const OsParams &os_params)
    : mach(m), osParams(os_params), pmapImpl(Pmap::create(m, policy)),
      framePool(policy.freeListOrg,
                m.dcache().geometry().numColours()),
      fileSystem(m.stats()),
      statMappingFaults(m.stats().counter("os.mapping_faults")),
      statConsistencyFaults(m.stats().counter("os.consistency_faults")),
      statCowFaults(m.stats().counter("os.cow_faults")),
      statDToICopies(m.stats().counter("os.d_to_i_copies")),
      statIpcTransfers(m.stats().counter("os.ipc_transfers")),
      statSyscalls(m.stats().counter("os.syscalls")),
      statPageins(m.stats().counter("os.pageins"))
{
    for (std::uint32_t c = 0; c < m.numCpus(); ++c)
        cpus.push_back(std::make_unique<Cpu>(m, c));

    bufCache = std::make_unique<BufferCache>(*this, osParams);
    pagePreparer =
        std::make_unique<PagePreparer>(*cpus[0], *pmapImpl, osParams);
    pageoutDaemon = std::make_unique<PageoutDaemon>(*this);
    serverAs = std::make_unique<AddressSpace>(
        OsParams::serverSpace, mach.pageBytes(),
        mach.dcache().geometry().numColours(),
        VirtAddr(osParams.serverDynamicBase));

    for (FrameId f = 0; f < mach.params().numFrames; ++f)
        framePool.free(f, std::nullopt);

    for (auto &c : cpus) {
        c->setFaultHandler(
            [this](const Fault &fault) { return handleFault(fault); });
    }
}

Kernel::~Kernel() = default;

Cpu &
Kernel::taskCpu(TaskId task)
{
    return *cpus[getTask(task).cpu];
}

Kernel::Task &
Kernel::getTask(TaskId task)
{
    vic_assert(task < tasks.size() && tasks[task].live,
               "bad task id %u", task);
    return tasks[task];
}

AddressSpace &
Kernel::addressSpace(TaskId task)
{
    return *getTask(task).as;
}

AddressSpace &
Kernel::spaceFor(SpaceId space)
{
    if (space == OsParams::serverSpace)
        return *serverAs;
    for (auto &t : tasks) {
        if (t.live && t.space == space)
            return *t.as;
    }
    vic_panic("no address space for space id %u", space);
}

// ----------------------------------------------------------------------
// Frames
// ----------------------------------------------------------------------

FrameId
Kernel::allocFrame(std::optional<CachePageId> wanted_colour)
{
    if (osParams.enablePageout && pageoutDaemon &&
        framePool.size() < osParams.pageoutLowWater)
        pageoutDaemon->reclaim();

    auto alloc = framePool.allocate(wanted_colour);
    if (!alloc)
        vic_fatal("out of physical memory (%llu frames configured)",
                  (unsigned long long)mach.params().numFrames);
    return alloc->frame;
}

void
Kernel::freeFrame(FrameId frame)
{
    pmapImpl->frameFreed(frame);
    framePool.free(frame, pmapImpl->preferredColour(frame));
}

void
Kernel::diskTransfer(FrameId frame, std::uint64_t block,
                     std::span<const TransferStep> steps)
{
    const PhysAddr pa = mach.frameAddr(frame);
    DmaTicket ticket;
    for (TransferStep step : steps) {
        switch (step) {
          case TransferStep::Guard:
            pageoutDaemon->wire(frame);
            break;
          case TransferStep::Unmap:
            for (const SpaceVa &va : pmapImpl->mappingsOf(frame))
                pmapImpl->remove(va);
            break;
          case TransferStep::Flush:
            pmapImpl->dmaRead(frame, /*need_data=*/true);
            break;
          case TransferStep::Purge:
            pmapImpl->dmaWrite(frame);
            break;
          case TransferStep::DeviceReads:
            ticket = mach.disk().writeBlock(block, pa);
            break;
          case TransferStep::DeviceWrites:
            ticket = mach.disk().readBlock(block, pa);
            break;
          case TransferStep::Wait:
            mach.dma().drain(std::move(ticket));
            break;
          case TransferStep::Release:
            pageoutDaemon->unwire(frame);
            break;
        }
    }
}

// ----------------------------------------------------------------------
// Tasks
// ----------------------------------------------------------------------

TaskId
Kernel::createTask()
{
    const TaskId id = static_cast<TaskId>(tasks.size());
    Task t;
    t.id = id;
    t.space = nextSpace++;
    t.cpu = id % mach.numCpus();
    t.as = std::make_unique<AddressSpace>(
        t.space, mach.pageBytes(), mach.dcache().geometry().numColours(),
        VirtAddr(osParams.taskDynamicBase));
    t.live = true;

    // The Unix-server shared syscall pages: one object aliased into
    // the task's and the server's address spaces. The "old" system
    // placed both at fixed, non-aligning addresses; the "new" one lets
    // the kernel pick aligning ones (Section 4.2).
    const std::uint32_t n = osParams.sharedPagesPerTask;
    t.sharedObj = std::make_shared<VmObject>(VmObject::anonymous(n));
    if (policy().alignSharedPages) {
        t.sharedTaskVa = t.as->allocateVa(n, std::nullopt);
        t.sharedServerVa = serverAs->allocateVa(
            n, pmapImpl->dColourOf(t.sharedTaskVa));
    } else {
        t.sharedTaskVa = VirtAddr(osParams.taskSharedBase);
        t.sharedServerVa = VirtAddr(
            osParams.serverSharedBase +
            std::uint64_t(id) * n * mach.pageBytes());
    }
    t.as->createRegion(t.sharedTaskVa, n, Protection::readWrite(),
                       Protection::readWrite(), t.sharedObj, 0, false);
    serverAs->createRegion(t.sharedServerVa, n, Protection::readWrite(),
                           Protection::readWrite(), t.sharedObj, 0,
                           false);

    tasks.push_back(std::move(t));
    return id;
}

void
Kernel::unmapRegion(AddressSpace &as, Region &region)
{
    const std::uint32_t page_bytes = mach.pageBytes();
    for (std::uint32_t i = 0; i < region.numPages; ++i) {
        const VirtAddr va =
            region.start.plus(std::uint64_t(i) * page_bytes);
        pmapImpl->remove(SpaceVa(as.id(), va));
        if (region.privatePages[i]) {
            freeFrame(*region.privatePages[i]);
            region.privatePages[i].reset();
        }
    }
    // Free the object's resident frames and swap blocks if this
    // region held the last reference to it.
    if (region.object.use_count() == 1) {
        for (FrameId f : region.object->residentFrames())
            freeFrame(f);
        pageoutDaemon->releaseSwap(*region.object);
    }
    region.object.reset();
}

void
Kernel::destroyTask(TaskId task)
{
    Task &t = getTask(task);

    // Drop the kernel's own reference to the shared object first so
    // the last region unmap below can release its frames.
    t.sharedObj.reset();

    Region server_region = serverAs->removeRegion(t.sharedServerVa);
    unmapRegion(*serverAs, server_region);

    while (!t.as->regions().empty()) {
        Region r = t.as->removeRegion(t.as->regions().front().start);
        unmapRegion(*t.as, r);
    }

    mach.tlbShootdownSpace(t.space);
    t.as.reset();
    t.live = false;
}

// ----------------------------------------------------------------------
// Virtual memory
// ----------------------------------------------------------------------

VirtAddr
Kernel::vmAllocate(TaskId task, std::uint32_t pages,
                   std::optional<VirtAddr> fixed)
{
    Task &t = getTask(task);
    auto obj = std::make_shared<VmObject>(VmObject::anonymous(pages));
    const VirtAddr va =
        fixed ? *fixed : t.as->allocateVa(pages, std::nullopt);
    t.as->createRegion(va, pages, Protection::readWrite(),
                       Protection::readWrite(), std::move(obj), 0,
                       false);
    return va;
}

void
Kernel::vmDeallocate(TaskId task, VirtAddr start)
{
    Task &t = getTask(task);
    Region r = t.as->removeRegion(start);
    unmapRegion(*t.as, r);
}

VirtAddr
Kernel::vmMapShared(TaskId task, std::shared_ptr<VmObject> object,
                    Protection prot, std::optional<VirtAddr> fixed)
{
    Task &t = getTask(task);
    const std::uint32_t pages =
        static_cast<std::uint32_t>(object->numPages());
    const VirtAddr va =
        fixed ? *fixed : t.as->allocateVa(pages, std::nullopt);
    t.as->createRegion(va, pages, prot, prot, std::move(object), 0,
                       false);
    return va;
}

VirtAddr
Kernel::vmMapCow(TaskId task, std::shared_ptr<VmObject> object,
                 std::optional<VirtAddr> fixed)
{
    Task &t = getTask(task);
    const std::uint32_t pages =
        static_cast<std::uint32_t>(object->numPages());
    const VirtAddr va =
        fixed ? *fixed : t.as->allocateVa(pages, std::nullopt);
    t.as->createRegion(va, pages, Protection::readWrite(),
                       Protection::readWrite(), std::move(object), 0,
                       true);
    return va;
}

void
Kernel::vmProtect(TaskId task, VirtAddr start, Protection prot)
{
    Task &t = getTask(task);
    Region *r = t.as->regionFor(start);
    vic_assert(r != nullptr, "vmProtect: no region at %llx",
               (unsigned long long)start.value);
    r->prot = prot.intersect(r->maxProt);

    // Re-protect whatever is currently mapped; non-resident pages pick
    // the new protection up at their next fault.
    const std::uint32_t page_bytes = mach.pageBytes();
    for (std::uint32_t i = 0; i < r->numPages; ++i) {
        const VirtAddr va = r->start.plus(std::uint64_t(i) * page_bytes);
        const SpaceVa key(t.space, va);
        if (mach.pageTable().lookup(key) == nullptr)
            continue;
        Protection eff = r->prot;
        if (r->copyOnWrite && !r->privatePages[i])
            eff.write = false;
        pmapImpl->protect(key, eff);
    }
}

std::shared_ptr<VmObject>
Kernel::regionObject(TaskId task, VirtAddr start)
{
    Task &t = getTask(task);
    Region *r = t.as->regionFor(start);
    vic_assert(r != nullptr, "no region at %llx",
               (unsigned long long)start.value);
    return r->object;
}

// ----------------------------------------------------------------------
// User accesses
// ----------------------------------------------------------------------

std::uint32_t
Kernel::userLoad(TaskId task, VirtAddr va)
{
    Cpu &c = taskCpu(task);
    SpaceGuard guard(c, getTask(task).space);
    return c.load(va);
}

void
Kernel::userStore(TaskId task, VirtAddr va, std::uint32_t value)
{
    Cpu &c = taskCpu(task);
    SpaceGuard guard(c, getTask(task).space);
    c.store(va, value);
}

std::uint32_t
Kernel::userExec(TaskId task, VirtAddr va)
{
    Cpu &c = taskCpu(task);
    SpaceGuard guard(c, getTask(task).space);
    return c.ifetch(va);
}

void
Kernel::userTouchPage(TaskId task, VirtAddr page_va, bool write,
                      std::uint32_t value_seed)
{
    Cpu &c = taskCpu(task);
    SpaceGuard guard(c, getTask(task).space);
    const std::uint32_t line = mach.dcache().geometry().lineBytes();
    const std::uint32_t n = mach.pageBytes() / line;
    if (write)
        c.storeRange(page_va, n, line, value_seed, line);
    else
        c.loadRange(page_va, n, line);
}

void
Kernel::userCompute(Cycles cycles)
{
    cpus[0]->compute(cycles);
}

void
Kernel::spaceStoreWords(Cpu &c, SpaceId space, VirtAddr va,
                        std::uint32_t n, std::uint32_t seed)
{
    SpaceGuard guard(c, space);
    c.storeRange(va, n, 4, seed, 1);
}

void
Kernel::spaceLoadWords(Cpu &c, SpaceId space, VirtAddr va,
                       std::uint32_t n)
{
    SpaceGuard guard(c, space);
    c.loadRange(va, n, 4);
}

// ----------------------------------------------------------------------
// Syscall stub
// ----------------------------------------------------------------------

void
Kernel::syscallRoundTrip(Task &task)
{
    ++statSyscalls;
    const std::uint32_t n = osParams.syscallArgWords;
    // Task marshals arguments into the shared page...
    Cpu &task_cpu = *cpus[task.cpu];
    Cpu &server_cpu = *cpus[0];
    spaceStoreWords(task_cpu, task.space, task.sharedTaskVa, n,
                    syscallStamp);
    syscallStamp += n;
    // ...the server reads them, then writes the reply...
    spaceLoadWords(server_cpu, OsParams::serverSpace,
                   task.sharedServerVa, n);
    spaceStoreWords(server_cpu, OsParams::serverSpace,
                    task.sharedServerVa, 2, syscallStamp);
    syscallStamp += 2;
    // ...and the task consumes the reply.
    spaceLoadWords(task_cpu, task.space, task.sharedTaskVa, 2);
}

// ----------------------------------------------------------------------
// Files
// ----------------------------------------------------------------------

FileId
Kernel::fileCreate(TaskId task, const std::string &name)
{
    syscallRoundTrip(getTask(task));
    return fileSystem.create(name);
}

FileId
Kernel::fileOpen(TaskId task, const std::string &name)
{
    syscallRoundTrip(getTask(task));
    auto id = fileSystem.lookup(name);
    vic_assert(id.has_value(), "open of missing file '%s'", name.c_str());
    return *id;
}

void
Kernel::fileDelete(TaskId task, const std::string &name)
{
    syscallRoundTrip(getTask(task));
    auto id = fileSystem.lookup(name);
    vic_assert(id.has_value(), "delete of missing file '%s'",
               name.c_str());
    bufCache->invalidateFile(*id);
    fileSystem.remove(*id);
}

void
Kernel::fileWrite(TaskId task, FileId file, std::uint64_t offset,
                  std::uint32_t bytes, std::uint32_t value_seed)
{
    vic_assert(bytes % 4 == 0 && offset % 4 == 0,
               "file I/O must be word aligned");
    Task &t = getTask(task);
    syscallRoundTrip(t);

    const std::uint32_t page_bytes = mach.pageBytes();
    std::uint64_t cur = offset;
    const std::uint64_t end = offset + bytes;
    std::uint32_t seed = value_seed;
    while (cur < end) {
        const std::uint64_t block = cur / page_bytes;
        const std::uint32_t block_off =
            static_cast<std::uint32_t>(cur % page_bytes);
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(end - cur, page_bytes - block_off));
        const std::uint32_t words = chunk / 4;
        const std::uint32_t shared_words = std::min<std::uint32_t>(
            words, page_bytes / 4);

        // Task passes the payload through the shared page; the server
        // picks it up.
        spaceStoreWords(*cpus[t.cpu], t.space, t.sharedTaskVa,
                        shared_words, seed);
        spaceLoadWords(*cpus[0], OsParams::serverSpace,
                       t.sharedServerVa, shared_words);

        // Server deposits the data in the buffer cache.
        const bool whole = block_off == 0 && chunk == page_bytes;
        BufferCache::BufferRef buf =
            bufCache->getBlock(file, block, true, whole);
        spaceStoreWords(*cpus[0], OsParams::serverSpace,
                        buf.kva.plus(block_off), words, seed);

        seed += words;
        cur += chunk;
    }
    fileSystem.extendTo(file, end);
    bufCache->writeBehind();
}

void
Kernel::fileRead(TaskId task, FileId file, std::uint64_t offset,
                 std::uint32_t bytes)
{
    vic_assert(bytes % 4 == 0 && offset % 4 == 0,
               "file I/O must be word aligned");
    Task &t = getTask(task);
    syscallRoundTrip(t);

    const std::uint32_t page_bytes = mach.pageBytes();
    std::uint64_t cur = offset;
    const std::uint64_t end = offset + bytes;
    while (cur < end) {
        const std::uint64_t block = cur / page_bytes;
        const std::uint32_t block_off =
            static_cast<std::uint32_t>(cur % page_bytes);
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(end - cur, page_bytes - block_off));
        const std::uint32_t words = chunk / 4;
        const std::uint32_t shared_words = std::min<std::uint32_t>(
            words, page_bytes / 4);

        BufferCache::BufferRef buf =
            bufCache->getBlock(file, block, false, false);
        // Server reads the file data and returns it through the shared
        // page; the task consumes it.
        spaceLoadWords(*cpus[0], OsParams::serverSpace,
                       buf.kva.plus(block_off), words);
        spaceStoreWords(*cpus[0], OsParams::serverSpace,
                        t.sharedServerVa, shared_words, syscallStamp);
        syscallStamp += shared_words;
        spaceLoadWords(*cpus[t.cpu], t.space, t.sharedTaskVa,
                       shared_words);

        cur += chunk;
    }
}

VirtAddr
Kernel::fileReadPageIpc(TaskId task, FileId file, std::uint64_t block)
{
    Task &t = getTask(task);
    syscallRoundTrip(t);

    BufferCache::BufferRef buf =
        bufCache->getBlock(file, block, false, false);

    // The kernel is free to pick the receiver's address: with the
    // alignment policy it matches the sender's (the buffer's) cache
    // colour, so the transferred page needs no consistency work.
    const std::optional<CachePageId> colour = policy().alignIpc
        ? std::optional<CachePageId>(pmapImpl->dColourOf(buf.kva))
        : std::nullopt;
    const VirtAddr dest_va = t.as->allocateVa(1, colour);

    const FrameId frame = allocFrame(pmapImpl->dColourOf(dest_va));
    pagePreparer->copyPage(frame, buf.frame, dest_va);

    auto obj = std::make_shared<VmObject>(VmObject::anonymous(1));
    obj->setFrame(0, frame);
    pageoutDaemon->registerPageable(obj, 0, frame);
    t.as->createRegion(dest_va, 1, Protection::readWrite(),
                       Protection::readWrite(), std::move(obj), 0,
                       false);
    ++statIpcTransfers;
    return dest_va;
}

void
Kernel::fileSyncAll()
{
    bufCache->sync();
}

// ----------------------------------------------------------------------
// Program text
// ----------------------------------------------------------------------

VirtAddr
Kernel::mapText(TaskId task, FileId file, std::uint32_t pages)
{
    // Text is paged in per process: when a task faults on an
    // instruction page, the file system copies the block from its
    // buffer cache into a page of the faulting address space (the
    // Section 5.1 data-to-instruction-space copy). The frames are
    // private to the task and recycled through the free list at exit.
    Task &t = getTask(task);
    auto obj =
        std::make_shared<VmObject>(VmObject::fileBacked(file, pages));
    const VirtAddr va(osParams.taskTextBase);
    t.as->createRegion(va, pages, Protection::readExecute(),
                       Protection::readExecute(), std::move(obj), 0,
                       false);
    return va;
}

void
Kernel::execText(TaskId task, std::uint32_t first_page,
                 std::uint32_t pages)
{
    Task &t = getTask(task);
    Cpu &c = *cpus[t.cpu];
    SpaceGuard guard(c, t.space);
    const std::uint32_t line = mach.icache().geometry().lineBytes();
    const std::uint32_t page_bytes = mach.pageBytes();
    for (std::uint32_t p = first_page; p < first_page + pages; ++p) {
        const VirtAddr base(osParams.taskTextBase +
                            std::uint64_t(p) * page_bytes);
        c.ifetchRange(base, page_bytes / line, line);
    }
}

// ----------------------------------------------------------------------
// IPC
// ----------------------------------------------------------------------

VirtAddr
Kernel::ipcTransferPage(TaskId from, VirtAddr src_va, TaskId to)
{
    Task &sender = getTask(from);
    Task &receiver = getTask(to);

    Region r = sender.as->removeRegion(src_va);
    vic_assert(r.numPages == 1 && !r.copyOnWrite,
               "IPC transfer needs a 1-page private region");
    pmapImpl->remove(SpaceVa(sender.space, src_va));

    // "The kernel is free to select any destination virtual address,
    // so choosing one that aligns with the source address guarantees
    // that no cache management operation is necessary." (Section 4.2)
    const std::optional<CachePageId> colour = policy().alignIpc
        ? std::optional<CachePageId>(pmapImpl->dColourOf(src_va))
        : std::nullopt;
    const VirtAddr dest_va = receiver.as->allocateVa(1, colour);
    receiver.as->createRegion(dest_va, 1, r.prot, r.maxProt, r.object,
                              r.objectPageOffset, false);
    ++statIpcTransfers;
    return dest_va;
}

VirtAddr
Kernel::ipcTransferRegion(TaskId from, VirtAddr src_start, TaskId to)
{
    Task &sender = getTask(from);
    Task &receiver = getTask(to);

    Region r = sender.as->removeRegion(src_start);
    vic_assert(!r.copyOnWrite,
               "IPC region transfer of a copy-on-write region");
    const std::uint32_t page_bytes = mach.pageBytes();
    for (std::uint32_t i = 0; i < r.numPages; ++i) {
        pmapImpl->remove(SpaceVa(
            sender.space, r.start.plus(std::uint64_t(i) * page_bytes)));
        vic_assert(!r.privatePages[i],
                   "IPC region transfer with private overlays");
    }

    const std::optional<CachePageId> colour = policy().alignIpc
        ? std::optional<CachePageId>(pmapImpl->dColourOf(src_start))
        : std::nullopt;
    const VirtAddr dest_va = receiver.as->allocateVa(r.numPages, colour);
    receiver.as->createRegion(dest_va, r.numPages, r.prot, r.maxProt,
                              r.object, r.objectPageOffset, false);
    statIpcTransfers += r.numPages;
    return dest_va;
}

// ----------------------------------------------------------------------
// Fault handling
// ----------------------------------------------------------------------

bool
Kernel::handleFault(const Fault &fault)
{
    VIC_EVLOG(mach.events(),
              format("fault  %s %s space=%u va=%llx",
                     fault.type == FaultType::Protection ? "prot "
                                                         : "unmap",
                     accessTypeName(fault.access), fault.address.space,
                     (unsigned long long)fault.address.va.value));
    if (fault.type == FaultType::Protection) {
        if (pmapImpl->resolveConsistencyFault(fault.address,
                                              fault.access)) {
            ++statConsistencyFaults;
            return true;
        }
        // Genuine VM-level denial: copy-on-write?
        if (fault.address.space == OsParams::kernelSpace)
            return false;
        AddressSpace &as = spaceFor(fault.address.space);
        const VirtAddr pv = mach.pageTable().pageBase(fault.address.va);
        Region *r = as.regionFor(pv);
        if (r && fault.access == AccessType::Store && r->copyOnWrite &&
            r->maxProt.write)
            return resolveCowFault(fault, as, *r);
        return false;
    }
    return resolveMappingFault(fault);
}

FrameId
Kernel::faultInPage(Region &region, std::uint32_t page_idx,
                    VirtAddr page_va, AccessType access)
{
    const std::uint64_t obj_page = region.objectPageOffset + page_idx;
    FrameId frame;
    if (auto swap_block = region.object->swapBlockAt(obj_page)) {
        // Page in from swap. The DMA-write consistency step purges
        // any dirty cache residue of the recycled frame so it cannot
        // clobber the device's data; the stale state it leaves makes
        // the first CPU access refetch fresh memory.
        frame = allocFrame(pmapImpl->dColourOf(page_va));
        diskTransfer(frame, *swap_block, kFill);
        pageoutDaemon->freeSwapBlock(*swap_block);
        region.object->clearSwapBlock(obj_page);
        ++statPageins;
    } else if (region.object->backing() == VmObject::Backing::Zero) {
        frame = allocFrame(pmapImpl->dColourOf(page_va));
        pagePreparer->zeroPage(frame, page_va);
    } else {
        // Page in from the file: the server copies the buffer-cache
        // block into a fresh page. When the page is destined for
        // execution this is the data-space to instruction-space copy
        // of Section 5.1.
        BufferCache::BufferRef buf = bufCache->getBlock(
            region.object->file(), obj_page, false, false);
        frame = allocFrame(pmapImpl->dColourOf(page_va));
        pagePreparer->copyPage(frame, buf.frame, page_va);
        if (access == AccessType::IFetch)
            ++statDToICopies;
    }
    region.object->setFrame(obj_page, frame);
    pageoutDaemon->registerPageable(region.object, obj_page, frame);
    return frame;
}

bool
Kernel::resolveMappingFault(const Fault &fault)
{
    if (fault.address.space == OsParams::kernelSpace)
        return false;  // kernel mappings are always entered explicitly

    AddressSpace &as = spaceFor(fault.address.space);
    const VirtAddr pv = mach.pageTable().pageBase(fault.address.va);
    Region *r = as.regionFor(pv);
    if (!r)
        return false;
    if (!protPermits(r->prot, fault.access))
        return false;

    // A first touch of a virtual page is a mapping fault, which any
    // cache architecture pays; re-faults on pages whose translation
    // was dropped for consistency reasons are consistency overhead
    // (Section 5.1's distinction).
    if (as.claimFirstAccess(pv))
        ++statMappingFaults;
    else
        ++statConsistencyFaults;

    const std::uint32_t idx = r->pageIndexOf(pv, mach.pageBytes());
    const bool has_private = r->privatePages[idx].has_value();
    std::optional<FrameId> frame = r->privatePages[idx];
    if (!frame)
        frame = r->object->frameAt(r->objectPageOffset + idx);
    if (!frame)
        frame = faultInPage(*r, idx, pv, fault.access);

    Protection eff = r->prot;
    if (r->copyOnWrite && !has_private)
        eff.write = false;

    // If the faulting access is a store that the effective protection
    // cannot grant (a COW page), map for reading; the retried store
    // will take the copy-on-write path.
    AccessType enter_access = fault.access;
    if (enter_access == AccessType::Store && !eff.write)
        enter_access = AccessType::Load;

    pmapImpl->enter(SpaceVa(fault.address.space, pv), *frame, eff,
                    enter_access, {});
    return true;
}

bool
Kernel::resolveCowFault(const Fault &fault, AddressSpace &as,
                        Region &region)
{
    (void)as;
    ++statCowFaults;
    const VirtAddr pv = mach.pageTable().pageBase(fault.address.va);
    const std::uint32_t idx = region.pageIndexOf(pv, mach.pageBytes());
    vic_assert(!region.privatePages[idx],
               "copy-on-write fault with private page already present");

    auto src = region.object->frameAt(region.objectPageOffset + idx);
    if (!src) {
        // The shared page was reclaimed between the mapping fault and
        // the write; bring it back.
        src = faultInPage(region, idx, pv, AccessType::Load);
    }

    // Pin the source so the allocation below cannot page it out from
    // under the copy.
    pageoutDaemon->wire(*src);
    const FrameId copy = allocFrame(pmapImpl->dColourOf(pv));
    pagePreparer->copyPage(copy, *src, pv);
    pageoutDaemon->unwire(*src);

    pmapImpl->remove(SpaceVa(fault.address.space, pv));
    region.privatePages[idx] = copy;
    pmapImpl->enter(SpaceVa(fault.address.space, pv), copy, region.prot,
                    AccessType::Store, {});
    return true;
}

} // namespace vic
