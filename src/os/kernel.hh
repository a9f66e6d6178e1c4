/**
 * @file
 * The Mach-like operating system layer.
 *
 * Owns the pmap (consistency policy), the physical frame pool, the
 * task address spaces, the Unix-server emulation (shared syscall
 * pages, buffer-cache file system) and the machine-independent VM
 * fault handler. Workloads drive the system exclusively through this
 * class, so every policy configuration sees the identical operation
 * stream — only the consistency management differs.
 *
 * The OS paths that generate cache-consistency traffic in the paper
 * are all here:
 *
 *  - demand zero-fill and copy-on-write page preparation;
 *  - IPC page transfer with kernel-selected destination addresses;
 *  - Unix-server shared syscall pages (aliased between server and
 *    task);
 *  - file reads/writes through the buffer cache, with disk DMA and
 *    write-behind;
 *  - program text faults that copy file data into pages that are then
 *    executed (the data-cache to instruction-cache path);
 *  - task teardown and physical page recycling through the free list.
 */

#ifndef VIC_OS_KERNEL_HH
#define VIC_OS_KERNEL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/pmap.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "mem/free_page_list.hh"
#include "os/address_space.hh"
#include "os/buffer_cache.hh"
#include "os/file_system.hh"
#include "os/os_params.hh"
#include "os/page_preparer.hh"
#include "os/pageout.hh"

namespace vic
{

using TaskId = std::uint32_t;

class Kernel
{
  public:
    Kernel(Machine &m, const PolicyConfig &policy,
           const OsParams &os_params = {});
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    Machine &machine() { return mach; }
    /** CPU @p id's execution context (the boot CPU by default; the
     *  kernel and Unix server run there). */
    Cpu &cpu(std::uint32_t id = 0) { return *cpus.at(id); }

    /** The CPU a task is scheduled on (round-robin placement). */
    Cpu &taskCpu(TaskId task);
    Pmap &pmap() { return *pmapImpl; }
    FileSystem &fs() { return fileSystem; }
    BufferCache &bufferCache() { return *bufCache; }
    PagePreparer &preparer() { return *pagePreparer; }
    const OsParams &params() const { return osParams; }
    const PolicyConfig &policy() const { return pmapImpl->config(); }

    // ------------------------------------------------------------------
    // Tasks
    // ------------------------------------------------------------------

    /** Create a task with its Unix-server shared page(s). */
    TaskId createTask();

    /** Tear down a task: unmap everything, free private pages. */
    void destroyTask(TaskId task);

    /** The task's address space (tests). */
    AddressSpace &addressSpace(TaskId task);

    /** The Unix server's address space (tests). */
    AddressSpace &serverAddressSpace() { return *serverAs; }

    // ------------------------------------------------------------------
    // Virtual memory
    // ------------------------------------------------------------------

    /** Allocate @p pages of anonymous zero-fill memory; the kernel
     *  picks the address unless @p fixed is given. */
    VirtAddr vmAllocate(TaskId task, std::uint32_t pages,
                        std::optional<VirtAddr> fixed = std::nullopt);

    /** Deallocate the region starting at @p start. */
    void vmDeallocate(TaskId task, VirtAddr start);

    /** Map @p object shared into the task (aliases!). */
    VirtAddr vmMapShared(TaskId task, std::shared_ptr<VmObject> object,
                         Protection prot,
                         std::optional<VirtAddr> fixed = std::nullopt);

    /** Map @p object copy-on-write into the task. */
    VirtAddr vmMapCow(TaskId task, std::shared_ptr<VmObject> object,
                      std::optional<VirtAddr> fixed = std::nullopt);

    /** Change the VM protection of the region at @p start (bounded by
     *  the region's maximum protection). Resident mappings are
     *  re-protected through the pmap immediately. */
    void vmProtect(TaskId task, VirtAddr start, Protection prot);

    /** The VM object backing the region at @p start (so callers can
     *  share it into other tasks). */
    std::shared_ptr<VmObject> regionObject(TaskId task, VirtAddr start);

    // ------------------------------------------------------------------
    // User-mode accesses (the workload's instruction stream)
    // ------------------------------------------------------------------

    std::uint32_t userLoad(TaskId task, VirtAddr va);
    void userStore(TaskId task, VirtAddr va, std::uint32_t value);
    std::uint32_t userExec(TaskId task, VirtAddr va);

    /** Touch one page: one access per cache line, loads or stores. */
    void userTouchPage(TaskId task, VirtAddr page_va, bool write,
                       std::uint32_t value_seed = 0);

    /** Model @p cycles of pure computation. */
    void userCompute(Cycles cycles);

    // ------------------------------------------------------------------
    // Files (routed through the Unix-server shared-page syscall stub)
    // ------------------------------------------------------------------

    FileId fileCreate(TaskId task, const std::string &name);
    FileId fileOpen(TaskId task, const std::string &name);
    void fileDelete(TaskId task, const std::string &name);

    /** write(2): the task's data is passed through the shared page and
     *  written into the buffer cache. */
    void fileWrite(TaskId task, FileId file, std::uint64_t offset,
                   std::uint32_t bytes, std::uint32_t value_seed);

    /** read(2): data is copied from the buffer cache into the shared
     *  page and consumed by the task. */
    void fileRead(TaskId task, FileId file, std::uint64_t offset,
                  std::uint32_t bytes);

    /** Out-of-line read: one file block is copied into a fresh page
     *  which is transferred to the task by IPC (kernel-chosen
     *  destination address). @return the address in the task. */
    VirtAddr fileReadPageIpc(TaskId task, FileId file,
                             std::uint64_t block);

    /** fsync()-ish: push all dirty buffers to disk. */
    void fileSyncAll();

    // ------------------------------------------------------------------
    // Program text
    // ------------------------------------------------------------------

    /** Map @p file's first @p pages as the task's program text at the
     *  fixed text base. Text frames are shared between tasks running
     *  the same file. */
    VirtAddr mapText(TaskId task, FileId file, std::uint32_t pages);

    /** Execute: one ifetch per cache line over @p pages pages of the
     *  task's text. */
    void execText(TaskId task, std::uint32_t first_page,
                  std::uint32_t pages);

    // ------------------------------------------------------------------
    // IPC
    // ------------------------------------------------------------------

    /** Transfer the page at (@p from, @p src_va) to @p to; the kernel
     *  selects the destination address (aligned when the policy says
     *  so). The source must be a single-page anonymous region. */
    VirtAddr ipcTransferPage(TaskId from, VirtAddr src_va, TaskId to);

    /** Transfer a whole region (out-of-line IPC memory): the region's
     *  pages move from @p from to @p to without copying; the kernel
     *  picks a destination address whose first page aligns with the
     *  source when the policy allows. */
    VirtAddr ipcTransferRegion(TaskId from, VirtAddr src_start,
                               TaskId to);

    // ------------------------------------------------------------------
    // Physical frames (used by the buffer cache and tests)
    // ------------------------------------------------------------------

    /** Allocate a frame, preferring one whose cache footprint matches
     *  @p wanted_colour. */
    FrameId allocFrame(std::optional<CachePageId> wanted_colour);

    /** Return a frame to the free list. */
    void freeFrame(FrameId frame);

    FreePageList &freeList() { return framePool; }

    /** Free frame count (tests). */
    std::uint64_t freeFrames() const { return framePool.size(); }

    PageoutDaemon &pageout() { return *pageoutDaemon; }

    /** Which way diskTransfer moves a frame. */
    enum class DiskIo
    {
        ToDisk,   ///< swap-out, buffer write-back: a DMA-read
        FromDisk, ///< swap-in, buffer fill: a DMA-write
    };

    /**
     * Move @p frame to or from disk block @p block. The pmap's DMA
     * preparation (flush before the device reads the frame, purge
     * before it writes it) comes strictly before the transfer's first
     * beat, and the frame stays wired while beats are pending so
     * pageout cannot recycle it mid-transfer. The interleaving
     * checker's guarded scenarios (src/mc/scenario.cc) take another
     * order: their busy bit, which holds off every CPU access, comes
     * before the preparation, while wire comes after it here and only
     * keeps pageout away. The simulator is sequential, so no access
     * falls between these steps; ROADMAP.md ("The interleaving checker
     * runs the kernel's own transfer steps") plans one step table for
     * both.
     */
    void diskTransfer(FrameId frame, std::uint64_t block, DiskIo io);

  private:
    friend class BufferCache;

    struct Task
    {
        TaskId id = 0;
        SpaceId space = 0;
        std::uint32_t cpu = 0;  ///< round-robin home CPU
        std::unique_ptr<AddressSpace> as;
        std::shared_ptr<VmObject> sharedObj;
        VirtAddr sharedTaskVa;
        VirtAddr sharedServerVa;
        bool live = false;
    };

    Machine &mach;
    OsParams osParams;
    std::unique_ptr<Pmap> pmapImpl;
    std::vector<std::unique_ptr<Cpu>> cpus;
    FreePageList framePool;
    FileSystem fileSystem;
    std::unique_ptr<BufferCache> bufCache;
    std::unique_ptr<PagePreparer> pagePreparer;
    std::unique_ptr<PageoutDaemon> pageoutDaemon;
    std::unique_ptr<AddressSpace> serverAs;

    std::vector<Task> tasks;
    SpaceId nextSpace = OsParams::firstTaskSpace;
    std::uint32_t sharedAllocCursor = 0;

    std::uint32_t syscallStamp = 1;

    Counter &statMappingFaults;
    Counter &statConsistencyFaults;
    Counter &statCowFaults;
    Counter &statDToICopies;
    Counter &statIpcTransfers;
    Counter &statSyscalls;
    Counter &statPageins;

    Task &getTask(TaskId task);
    AddressSpace &spaceFor(SpaceId space);

    /** CPU fault upcall. */
    bool handleFault(const Fault &fault);

    /** Resolve a fault on an unmapped page (demand paging). */
    bool resolveMappingFault(const Fault &fault);

    /** Resolve a copy-on-write store. */
    bool resolveCowFault(const Fault &fault, AddressSpace &as,
                         Region &region);

    /** Materialise the page backing (@p region, @p page_idx). */
    FrameId faultInPage(Region &region, std::uint32_t page_idx,
                        VirtAddr page_va, AccessType access);

    /** Unmap and release one region of @p as. */
    void unmapRegion(AddressSpace &as, Region &region);

    /** The shared-page syscall stub: argument/reply ping-pong. */
    void syscallRoundTrip(Task &task);

    /** Run @p n word loads/stores at @p va in @p space on @p c. */
    void spaceStoreWords(Cpu &c, SpaceId space, VirtAddr va,
                         std::uint32_t n, std::uint32_t seed);
    void spaceLoadWords(Cpu &c, SpaceId space, VirtAddr va,
                        std::uint32_t n);
};

} // namespace vic

#endif // VIC_OS_KERNEL_HH
