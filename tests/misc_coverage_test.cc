/**
 * @file
 * Coverage for corners the focused suites don't reach: the pmap
 * factory, physical snooping candidate sets, per-CPU instruction
 * coherence boundaries, buffer-slot frame recycling, pageout wiring,
 * event logging through the real machine, and workload identities.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "core/classic_pmap.hh"
#include "core/lazy_pmap.hh"
#include "core/pmap.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"
#include "workload/afs_bench.hh"
#include "workload/contrived_alias.hh"
#include "workload/db_server.hh"
#include "workload/kernel_build.hh"
#include "workload/latex_bench.hh"
#include "workload/multiprog.hh"

namespace vic
{
namespace
{

TEST(PmapFactoryTest, CreatesTheConfiguredStrategy)
{
    Machine m{MachineParams::hp720()};
    auto lazy = Pmap::create(m, PolicyConfig::configF());
    EXPECT_NE(dynamic_cast<LazyPmap *>(lazy.get()), nullptr);
    EXPECT_STREQ(lazy->kindName(), "lazy");

    Machine m2{MachineParams::hp720()};
    auto classic = Pmap::create(m2, PolicyConfig::configA());
    EXPECT_NE(dynamic_cast<ClassicPmap *>(classic.get()), nullptr);
    EXPECT_STREQ(classic->kindName(), "classic");
}

TEST(SpanColoursTest, PhysicalIndexingKeepsPhysicalSpan)
{
    // numColours is 1 for PIPT (all VAs align) but the physical span
    // — the number of sets a line could occupy for snooping — stays.
    CacheGeometry g(64 * 1024, 32, 4096, 1, Indexing::Physical);
    EXPECT_EQ(g.numColours(), 1u);
    EXPECT_EQ(g.spanColours(), 16u);
}

TEST(SnoopCandidateTest, FindsLineAtEveryColour)
{
    // Place the same physical line at several virtual colours, then
    // snoop-invalidate by physical address: every copy must die.
    PhysicalMemory mem(16, 4096);
    CycleClock clk;
    StatSet stats;
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache c("c", geo, CacheCosts{}, WritePolicy::WriteBack, mem, clk,
            stats);
    const PhysAddr pa(2 * 4096 + 64);
    for (std::uint32_t colour = 0; colour < 16; colour += 3) {
        c.read(VirtAddr(std::uint64_t(colour) * 4096 + 64), pa);
    }
    c.snoopInvalidateLine(pa);
    for (std::uint32_t colour = 0; colour < 16; colour += 3) {
        EXPECT_FALSE(
            c.probe(VirtAddr(std::uint64_t(colour) * 4096 + 64), pa)
                .present);
    }
}

TEST(CoherenceBoundaryTest, InstructionCachesAreNotHardwareCoherent)
{
    // As on the real machine: the I-caches are left to software even
    // on a multiprocessor — the MESI bus connects only the data
    // caches unless ifetchCoherence opts the I-caches in as
    // read-only ports.
    MachineParams mp = MachineParams::hp720();
    mp.numCpus = 2;
    Machine m(mp);
    m.pageTable().enter(SpaceVa(1, VirtAddr(0x4000)), 2,
                        Protection::all());
    Cpu cpu0(m, 0), cpu1(m, 1);
    cpu0.setSpace(1);
    cpu1.setSpace(1);

    cpu1.ifetch(VirtAddr(0x4000));  // caches 0 in cpu1's I-cache
    cpu0.store(VirtAddr(0x4000), 0x1234);
    // cpu1's stale I-line survives: hardware does not fix this.
    EXPECT_EQ(cpu1.ifetch(VirtAddr(0x4000)), 0u);
}

TEST(BufferRecycleTest, RefilledSlotGetsAFreshFrame)
{
    Machine machine{MachineParams::hp720()};
    OsParams op;
    op.bufferCacheSlots = 1;  // every new block recycles the slot
    Kernel kernel(machine, PolicyConfig::configF(), op);
    TaskId t = kernel.createTask();

    FileId a = kernel.fileCreate(t, "a");
    FileId b = kernel.fileCreate(t, "b");
    auto free0 = kernel.freeFrames();
    kernel.fileWrite(t, a, 0, 4096, 1);
    kernel.fileWrite(t, b, 0, 4096, 2);  // evicts a's block
    kernel.fileRead(t, a, 0, 4096);      // evicts b's block
    // The pool shrinks only by the working set, not per refill: the
    // recycled frames go back.
    EXPECT_GE(kernel.freeFrames() + 8, free0);
}

TEST(PageoutWiringTest, WiredFrameIsNeverEvicted)
{
    MachineParams mp = MachineParams::hp720();
    mp.numFrames = 64;
    Machine machine(mp);
    OsParams op;
    op.bufferCacheSlots = 4;
    op.pageoutLowWater = 60;   // reclaim on every allocation
    op.pageoutHighWater = 62;
    Kernel kernel(machine, PolicyConfig::configF(), op);
    TaskId t = kernel.createTask();

    VirtAddr va = kernel.vmAllocate(t, 1);
    kernel.userStore(t, va, 7);
    auto obj = kernel.regionObject(t, va);
    auto frame = obj->frameAt(0);
    ASSERT_TRUE(frame.has_value());

    kernel.pageout().wire(*frame);
    // Heavy allocation pressure; the wired frame must stay resident.
    VirtAddr hog = kernel.vmAllocate(t, 30);
    for (std::uint32_t p = 0; p < 30; ++p)
        kernel.userStore(t, hog.plus(std::uint64_t(p) * 4096), p);
    EXPECT_EQ(obj->frameAt(0), frame);
    kernel.pageout().unwire(*frame);
}

TEST(EventLogMachineTest, PmapEventsAreRecorded)
{
    Machine machine{MachineParams::hp720()};
    machine.events().enable(32);
    Kernel kernel(machine, PolicyConfig::configA());
    TaskId t = kernel.createTask();
    VirtAddr va = kernel.vmAllocate(t, 1);
    kernel.userStore(t, va, 1);
    kernel.vmDeallocate(t, va);  // config A: eager flush at unmap

    bool saw_flush = false;
    for (const auto &e : machine.events().recent(32))
        saw_flush |= e.find("flush") != std::string::npos;
    EXPECT_TRUE(saw_flush);
    EXPECT_GT(machine.events().totalLogged(), 0u);
}

TEST(WorkloadNameTest, EveryWorkloadHasAStableName)
{
    EXPECT_EQ(AfsBench().name(), "afs-bench");
    EXPECT_EQ(LatexBench().name(), "latex-paper");
    EXPECT_EQ(KernelBuild().name(), "kernel-build");
    EXPECT_EQ(MultiProg().name(), "multiprog");
    EXPECT_EQ(DbServer().name(), "db-server-fixed");
    DbServer::Params p;
    p.fixedAddresses = false;
    EXPECT_EQ(DbServer(p).name(), "db-server-aligned");
    EXPECT_EQ(ContrivedAlias({true, 10, false}).name(),
              "contrived-aligned");
    EXPECT_EQ(ContrivedAlias({false, 10, false}).name(),
              "contrived-unaligned");
}

TEST(PolicyNameTest, SweepsAreOrderedAndNamed)
{
    auto sweep = PolicyConfig::table4Sweep();
    const std::vector<PolicyConfig> ladder = {
        PolicyConfig::configA(), PolicyConfig::configB(),
        PolicyConfig::configC(), PolicyConfig::configD(),
        PolicyConfig::configE(), PolicyConfig::configF()};
    EXPECT_TRUE(sweep == ladder);
    ASSERT_EQ(sweep.size(), 6u);
    EXPECT_EQ(sweep.front().name, "A (old)");
    EXPECT_EQ(sweep.back().name, "F (+will overwrite)");
    EXPECT_EQ(sweep.front().pmapKind, PmapKind::Classic);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_EQ(sweep[i].pmapKind, PmapKind::Lazy);

    auto systems = PolicyConfig::table5Systems();
    ASSERT_EQ(systems.size(), 5u);
    EXPECT_EQ(systems.front().name, "CMU");
}

TEST(KernelMisuseDeathTest, OverlappingFixedAllocationPanics)
{
    Machine machine{MachineParams::hp720()};
    Kernel kernel(machine, PolicyConfig::configF());
    TaskId t = kernel.createTask();
    VirtAddr va = kernel.vmAllocate(t, 2);
    EXPECT_DEATH(kernel.vmAllocate(t, 1, va.plus(4096)), "overlapping");
}

TEST(KernelMisuseDeathTest, CowRegionCannotBeTransferred)
{
    Machine machine{MachineParams::hp720()};
    Kernel kernel(machine, PolicyConfig::configF());
    TaskId a = kernel.createTask();
    TaskId b = kernel.createTask();
    VirtAddr src = kernel.vmAllocate(a, 1);
    kernel.userStore(a, src, 1);
    VirtAddr cow = kernel.vmMapCow(b, kernel.regionObject(a, src));
    EXPECT_DEATH(kernel.ipcTransferRegion(b, cow, a), "copy-on-write");
}

TEST(SelfModifyingCodeTest, ClassicWxModeSwitchesAreConsistent)
{
    // The JIT pattern under the eager policy: repeated write/execute
    // alternation across the W^X mode switches.
    Machine machine{MachineParams::hp720()};
    ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);
    Kernel kernel(machine, PolicyConfig::configA());
    TaskId t = kernel.createTask();
    auto obj = std::make_shared<VmObject>(VmObject::anonymous(1));
    VirtAddr code = kernel.vmMapShared(t, obj, Protection::all());

    for (std::uint32_t gen = 1; gen <= 5; ++gen) {
        kernel.userStore(t, code, 0x1000 * gen);
        EXPECT_EQ(kernel.userExec(t, code), 0x1000 * gen) << gen;
    }
    EXPECT_TRUE(oracle.clean());
}

} // anonymous namespace
} // namespace vic
