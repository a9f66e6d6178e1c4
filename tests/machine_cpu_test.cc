/** @file Unit tests for the composed machine and the CPU access path
 *  (translation, protection faults, reference/modified bits). */

#include <gtest/gtest.h>

#include "machine/cpu.hh"
#include "machine/machine.hh"

namespace vic
{
namespace
{

class MachineCpuTest : public ::testing::Test
{
  protected:
    MachineCpuTest() : machine(MachineParams::hp720()), cpu(machine)
    {
        cpu.setSpace(1);
    }

    void
    map(VirtAddr va, FrameId frame, Protection prot)
    {
        machine.pageTable().enter(SpaceVa(1, va), frame, prot);
    }

    Machine machine;
    Cpu cpu;
};

TEST_F(MachineCpuTest, MachineComposition)
{
    EXPECT_EQ(machine.pageBytes(), 4096u);
    EXPECT_EQ(machine.dcache().geometry().indexing(), Indexing::Virtual);
    EXPECT_EQ(machine.icache().geometry().indexing(), Indexing::Virtual);
    EXPECT_EQ(&machine.cacheFor(CacheKind::Data), &machine.dcache());
    EXPECT_EQ(&machine.cacheFor(CacheKind::Instruction),
              &machine.icache());
    EXPECT_EQ(machine.frameAddr(3, 8).value, 3u * 4096u + 8u);
}

TEST_F(MachineCpuTest, LoadStoreRoundTrip)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    cpu.store(VirtAddr(0x4010), 77);
    EXPECT_EQ(cpu.load(VirtAddr(0x4010)), 77u);
}

TEST_F(MachineCpuTest, ReferencedAndModifiedBits)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    cpu.load(VirtAddr(0x4000));
    const PageTableEntry *pte =
        machine.pageTable().lookup(SpaceVa(1, VirtAddr(0x4000)));
    EXPECT_TRUE(pte->referenced);
    EXPECT_FALSE(pte->modified);
    cpu.store(VirtAddr(0x4000), 1);
    EXPECT_TRUE(pte->modified);
}

TEST_F(MachineCpuTest, IFetchGoesThroughICache)
{
    map(VirtAddr(0x4000), 2, Protection::readExecute());
    cpu.ifetch(VirtAddr(0x4000));
    EXPECT_EQ(machine.stats().value("icache.reads"), 1u);
    EXPECT_EQ(machine.stats().value("dcache.reads"), 0u);
}

TEST_F(MachineCpuTest, FaultHandlerInvokedOnUnmapped)
{
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        ++faults;
        EXPECT_EQ(f.type, FaultType::Unmapped);
        EXPECT_EQ(f.access, AccessType::Load);
        EXPECT_EQ(f.address.space, 1u);
        map(VirtAddr(0x4000), 2, Protection::readOnly());
        return true;
    });
    EXPECT_EQ(cpu.load(VirtAddr(0x4000)), 0u);
    EXPECT_EQ(faults, 1);
    EXPECT_EQ(cpu.faultCount(), 1u);
}

TEST_F(MachineCpuTest, ProtectionFaultOnStoreToReadOnly)
{
    map(VirtAddr(0x4000), 2, Protection::readOnly());
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        ++faults;
        EXPECT_EQ(f.type, FaultType::Protection);
        EXPECT_EQ(f.access, AccessType::Store);
        machine.pageTable().setProtection(SpaceVa(1, VirtAddr(0x4000)),
                                          Protection::readWrite());
        return true;
    });
    cpu.store(VirtAddr(0x4000), 5);
    EXPECT_EQ(faults, 1);
}

TEST_F(MachineCpuTest, ExecuteDeniedWithoutExecutePermission)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        ++faults;
        EXPECT_EQ(f.access, AccessType::IFetch);
        machine.pageTable().setProtection(SpaceVa(1, VirtAddr(0x4000)),
                                          Protection::all());
        return true;
    });
    cpu.ifetch(VirtAddr(0x4000));
    EXPECT_EQ(faults, 1);
}

TEST_F(MachineCpuTest, FaultChargesTrapCycles)
{
    map(VirtAddr(0x4000), 2, Protection::readOnly());
    cpu.setFaultHandler([&](const Fault &) {
        machine.pageTable().setProtection(SpaceVa(1, VirtAddr(0x4000)),
                                          Protection::readWrite());
        return true;
    });
    Cycles before = machine.clock().now();
    cpu.store(VirtAddr(0x4000), 1);
    EXPECT_GE(machine.clock().now() - before,
              machine.params().trapCycles);
}

TEST_F(MachineCpuTest, UnhandledFaultAborts)
{
    cpu.setFaultHandler([](const Fault &) { return false; });
    EXPECT_DEATH(cpu.load(VirtAddr(0x4000)), "unrecoverable");
}

TEST_F(MachineCpuTest, FaultLivelockDetected)
{
    cpu.setFaultHandler([](const Fault &) { return true; });  // no fix
    EXPECT_DEATH(cpu.load(VirtAddr(0x4000)), "livelock");
}

TEST_F(MachineCpuTest, ComputeAdvancesClock)
{
    Cycles before = machine.clock().now();
    cpu.compute(1234);
    EXPECT_EQ(machine.clock().now() - before, 1234u);
}

TEST_F(MachineCpuTest, ElapsedSecondsUsesClockRate)
{
    machine.clock().reset();
    machine.clock().advance(50'000'000);
    EXPECT_DOUBLE_EQ(machine.elapsedSeconds(), 1.0);  // 50 MHz
}

TEST_F(MachineCpuTest, SpaceSwitchingIsolatesAddressSpaces)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    machine.pageTable().enter(SpaceVa(2, VirtAddr(0x4000)), 3,
                              Protection::readWrite());
    cpu.store(VirtAddr(0x4000), 11);  // space 1, frame 2
    cpu.setSpace(2);
    cpu.store(VirtAddr(0x4000), 22);  // space 2, frame 3
    cpu.setSpace(1);
    EXPECT_EQ(cpu.load(VirtAddr(0x4000)), 11u);
}

TEST(MachineSnoopTest, SnoopingMachineWiresDmaToCaches)
{
    MachineParams p = MachineParams::hp720();
    p.dmaSnoops = true;
    Machine m(p);
    EXPECT_TRUE(m.dma().snooping());
}

TEST(MachineParamsDeathTest, ChecksReject)
{
    MachineParams p = MachineParams::hp720();
    p.numFrames = 0;
    EXPECT_DEATH(Machine{p}, "frame");
}

TEST(MachineParamsDeathTest, ZeroTlbEntriesRejected)
{
    // Rejected as input, not left to the TLB constructor's assertion.
    MachineParams p = MachineParams::hp720();
    p.tlbEntries = 0;
    EXPECT_EXIT(Machine{p}, ::testing::ExitedWithCode(1),
                "TLB needs at least one entry");
}

TEST(MachineParamsDeathTest, PageSizeNotPowerOfTwoRejected)
{
    // Rejected as input, not left to the page table's assertion.
    MachineParams p = MachineParams::hp720();
    p.pageBytes = 3000;
    EXPECT_EXIT(Machine{p}, ::testing::ExitedWithCode(1),
                "page size 3000 is not a power of two");
}

TEST(MachineParamsDeathTest, IfetchCoherenceNeedsWriteBackDataCache)
{
    // A write-through store issues no bus transaction, so a coherent
    // I-cache would keep the old word. Also on a uniprocessor.
    MachineParams p = MachineParams::hp720();
    p.ifetchCoherence = true;
    p.dcachePolicy = WritePolicy::WriteThrough;
    EXPECT_DEATH(Machine{p}, "requires write-back data caches");
    p.dcachePolicy = WritePolicy::WriteBack;
    Machine ok(p);
    EXPECT_NE(ok.coherenceBus(), nullptr);
}

} // anonymous namespace
} // namespace vic
