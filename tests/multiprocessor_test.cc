/**
 * @file
 * Section 3.3, "Cache-coherent multiprocessors": equivalent cache
 * pages across processors form a hardware-consistent set, and the
 * consistency model needs NO rule changes. These tests cover the
 * hardware coherence layer itself, its conformance to the MESI spec
 * tables, the unchanged CacheControl rules on a 2-CPU machine, and
 * full kernel workloads across 1/2/4 CPUs under every policy.
 */

#include <gtest/gtest.h>

#include "cache/mesi_spec.hh"
#include "core/lazy_pmap.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"
#include "workload/afs_bench.hh"
#include "workload/contrived_alias.hh"
#include "workload/kernel_build.hh"
#include "workload/runner.hh"

namespace vic
{
namespace
{

MachineParams
mpParams(std::uint32_t cpus)
{
    MachineParams p = MachineParams::hp720();
    p.numCpus = cpus;
    return p;
}

// ---------------------------------------------------------------------
// Hardware coherence layer (no pmap): raw CPUs on one page table.
// ---------------------------------------------------------------------

class CoherenceTest : public ::testing::Test
{
  protected:
    CoherenceTest() : machine(mpParams(2)), cpu0(machine, 0),
                      cpu1(machine, 1)
    {
        machine.pageTable().enter(SpaceVa(1, VirtAddr(0x4000)), 2,
                                  Protection::all());
        cpu0.setSpace(1);
        cpu1.setSpace(1);
    }

    Machine machine;
    Cpu cpu0;
    Cpu cpu1;
};

TEST_F(CoherenceTest, PeerReadSeesDirtyWrite)
{
    cpu0.store(VirtAddr(0x4000), 77);
    // Without snooping, cpu1 would fill stale memory; the coherence
    // step writes cpu0's dirty line back first.
    EXPECT_EQ(cpu1.load(VirtAddr(0x4000)), 77u);
}

TEST_F(CoherenceTest, WriteInvalidatesPeerCopies)
{
    cpu0.load(VirtAddr(0x4000));
    cpu1.load(VirtAddr(0x4000));  // both hold clean copies
    cpu0.store(VirtAddr(0x4000), 123);
    EXPECT_EQ(cpu1.load(VirtAddr(0x4000)), 123u);  // refetched
}

TEST_F(CoherenceTest, PingPongOwnershipMigrates)
{
    for (std::uint32_t i = 0; i < 20; ++i) {
        Cpu &writer = i % 2 ? cpu1 : cpu0;
        Cpu &reader = i % 2 ? cpu0 : cpu1;
        writer.store(VirtAddr(0x4000 + 4 * (i % 8)), i);
        EXPECT_EQ(reader.load(VirtAddr(0x4000 + 4 * (i % 8))), i);
    }
}

TEST_F(CoherenceTest, AtMostOneDirtyCopy)
{
    cpu0.store(VirtAddr(0x4000), 1);
    cpu1.store(VirtAddr(0x4000), 2);
    // cpu0's copy was invalidated; only cpu1's line may be dirty.
    PhysAddr pa = machine.frameAddr(2);
    EXPECT_FALSE(machine.dcache(0).probe(VirtAddr(0x4000), pa).present);
    EXPECT_TRUE(machine.dcache(1).probe(VirtAddr(0x4000), pa).dirty);
}

TEST_F(CoherenceTest, SnoopInterventionChargesBusCycles)
{
    cpu0.store(VirtAddr(0x4000), 1);
    Cycles before = machine.clock().now();
    cpu1.load(VirtAddr(0x4000));
    EXPECT_GE(machine.clock().now() - before,
              machine.params().snoopPenalty);
}

// --- MESI state machine, transition by transition ---------------------

TEST_F(CoherenceTest, MesiFillIsExclusiveWhenNoPeerHasTheLine)
{
    const PhysAddr pa = machine.frameAddr(2);
    cpu0.load(VirtAddr(0x4000));
    EXPECT_EQ(machine.dcache(0).probe(VirtAddr(0x4000), pa).state,
              MesiState::Exclusive);
    EXPECT_EQ(machine.dcache(1).probe(VirtAddr(0x4000), pa).state,
              MesiState::Invalid);
}

TEST_F(CoherenceTest, MesiPeerFillDemotesExclusiveToShared)
{
    const PhysAddr pa = machine.frameAddr(2);
    cpu0.load(VirtAddr(0x4000));
    cpu1.load(VirtAddr(0x4000));
    EXPECT_EQ(machine.dcache(0).probe(VirtAddr(0x4000), pa).state,
              MesiState::Shared);
    EXPECT_EQ(machine.dcache(1).probe(VirtAddr(0x4000), pa).state,
              MesiState::Shared);
}

TEST_F(CoherenceTest, MesiStoreToExclusiveUpgradesSilently)
{
    const PhysAddr pa = machine.frameAddr(2);
    cpu0.load(VirtAddr(0x4000));
    const std::uint64_t upgrades = machine.stats().value("bus.upgrades");
    cpu0.store(VirtAddr(0x4000), 5);
    // E -> M is the silent transition: no bus transaction at all.
    EXPECT_EQ(machine.dcache(0).probe(VirtAddr(0x4000), pa).state,
              MesiState::Modified);
    EXPECT_EQ(machine.stats().value("bus.upgrades"), upgrades);
}

TEST_F(CoherenceTest, MesiStoreToSharedBroadcastsAnUpgrade)
{
    const PhysAddr pa = machine.frameAddr(2);
    cpu0.load(VirtAddr(0x4000));
    cpu1.load(VirtAddr(0x4000)); // S in both
    cpu0.store(VirtAddr(0x4000), 9);
    EXPECT_EQ(machine.dcache(0).probe(VirtAddr(0x4000), pa).state,
              MesiState::Modified);
    EXPECT_EQ(machine.dcache(1).probe(VirtAddr(0x4000), pa).state,
              MesiState::Invalid);
    EXPECT_GE(machine.stats().value("bus.upgrades"), 1u);
    EXPECT_GE(machine.stats().value("bus.invalidations"), 1u);
}

TEST_F(CoherenceTest, MesiSnoopDemotesModifiedToSharedWithWriteBack)
{
    const PhysAddr pa = machine.frameAddr(2);
    cpu0.store(VirtAddr(0x4000), 31);
    EXPECT_EQ(machine.dcache(0).probe(VirtAddr(0x4000), pa).state,
              MesiState::Modified);
    cpu1.load(VirtAddr(0x4000));
    // The owner intervened: its line is written back and demoted, the
    // requester fills Shared, and memory holds the store.
    EXPECT_EQ(machine.dcache(0).probe(VirtAddr(0x4000), pa).state,
              MesiState::Shared);
    EXPECT_EQ(machine.dcache(1).probe(VirtAddr(0x4000), pa).state,
              MesiState::Shared);
    EXPECT_EQ(machine.memory().readWord(pa), 31u);
    EXPECT_GE(machine.stats().value("bus.interventions"), 1u);
}

TEST_F(CoherenceTest, MesiReadExclusiveInvalidatesTheOwner)
{
    const PhysAddr pa = machine.frameAddr(2);
    cpu0.store(VirtAddr(0x4000), 1); // M in cache0
    cpu1.store(VirtAddr(0x4000), 2); // miss-for-write: busReadExclusive
    EXPECT_EQ(machine.dcache(0).probe(VirtAddr(0x4000), pa).state,
              MesiState::Invalid);
    EXPECT_EQ(machine.dcache(1).probe(VirtAddr(0x4000), pa).state,
              MesiState::Modified);
    // cpu0's value reached memory before cpu1's line took ownership.
    EXPECT_EQ(machine.memory().readWord(pa), 1u);
}

TEST_F(CoherenceTest, MesiOwnershipImpliesAllPeersInvalid)
{
    // Invariant sweep over a ping-pong history: whenever one cache
    // holds a line M or E, the other must hold it Invalid.
    for (std::uint32_t i = 0; i < 12; ++i) {
        Cpu &writer = i % 2 ? cpu1 : cpu0;
        writer.store(VirtAddr(0x4000), i);
        const PhysAddr pa = machine.frameAddr(2);
        const MesiState s0 =
            machine.dcache(0).probe(VirtAddr(0x4000), pa).state;
        const MesiState s1 =
            machine.dcache(1).probe(VirtAddr(0x4000), pa).state;
        if (s0 == MesiState::Modified || s0 == MesiState::Exclusive) {
            EXPECT_EQ(s1, MesiState::Invalid) << i;
        }
        if (s1 == MesiState::Modified || s1 == MesiState::Exclusive) {
            EXPECT_EQ(s0, MesiState::Invalid) << i;
        }
    }
}

TEST_F(CoherenceTest, NonCoherentConfigReadsStaleMemory)
{
    // The same machine without the bus: the peer fill bypasses the
    // dirty copy — the failure mode the MESI configs exist to prevent
    // (and the one the race detector must keep reporting).
    MachineParams p = mpParams(2);
    p.cpuCoherence = MachineParams::CpuCoherence::None;
    Machine bare(p);
    bare.pageTable().enter(SpaceVa(1, VirtAddr(0x4000)), 2,
                           Protection::all());
    Cpu c0(bare, 0), c1(bare, 1);
    c0.setSpace(1);
    c1.setSpace(1);
    c0.store(VirtAddr(0x4000), 77);
    EXPECT_NE(c1.load(VirtAddr(0x4000)), 77u); // stale fill
}

TEST_F(CoherenceTest, TlbsArePerCpu)
{
    cpu0.load(VirtAddr(0x4000));
    cpu1.load(VirtAddr(0x4000));
    EXPECT_EQ(machine.tlb(0).validCount(), 1u);
    EXPECT_EQ(machine.tlb(1).validCount(), 1u);
    machine.tlb(0).invalidateAll();
    EXPECT_EQ(machine.tlb(1).validCount(), 1u);  // private
}

TEST_F(CoherenceTest, ShootdownReachesEveryCpu)
{
    cpu0.load(VirtAddr(0x4000));
    cpu1.load(VirtAddr(0x4000));
    machine.tlbShootdownPage(SpaceVa(1, VirtAddr(0x4000)));
    EXPECT_EQ(machine.tlb(0).validCount(), 0u);
    EXPECT_EQ(machine.tlb(1).validCount(), 0u);
}

TEST_F(CoherenceTest, CachesArePerCpu)
{
    cpu0.load(VirtAddr(0x4000));
    EXPECT_EQ(machine.stats().value("dcache0.reads"), 1u);
    EXPECT_EQ(machine.stats().value("dcache1.reads"), 0u);
}

// ---------------------------------------------------------------------
// MESI conformance: the spec tables (cache/mesi_spec) vs what a
// 3-CPU machine's caches and CoherenceBus do, transition by
// transition.
// ---------------------------------------------------------------------

struct MesiRig
{
    MesiRig() : machine(params()), cpu0(machine, 0),
                cpu1(machine, 1), cpu2(machine, 2)
    {
        machine.pageTable().enter(SpaceVa(1, VirtAddr(0x4000)), 2,
                                  Protection::all());
        cpu0.setSpace(1);
        cpu1.setSpace(1);
        cpu2.setSpace(1);
    }

    static MachineParams params()
    {
        MachineParams p = MachineParams::hp720();
        p.numCpus = 3;
        return p;
    }

    MesiState state(std::uint32_t cpu)
    {
        return machine
            .dcache(cpu)
            .probe(VirtAddr(0x4000), machine.frameAddr(2))
            .state;
    }

    std::uint64_t stat(const char *name)
    {
        return machine.stats().value(name);
    }

    /** Drive cpu0's line into @p s; @p peer_holds makes cpu1 keep a
     *  copy. Returns false for combinations the protocol itself
     *  cannot construct (Exclusive/Modified with a peer copy). */
    bool setup(MesiState s, bool peer_holds)
    {
        switch (s) {
          case MesiState::Invalid:
            if (peer_holds)
                cpu1.load(VirtAddr(0x4000));
            return true;
          case MesiState::Shared:
            if (!peer_holds)
                return false;
            cpu0.load(VirtAddr(0x4000));
            cpu1.load(VirtAddr(0x4000));
            return true;
          case MesiState::Exclusive:
            if (peer_holds)
                return false;
            cpu0.load(VirtAddr(0x4000));
            return true;
          case MesiState::Modified:
            if (peer_holds)
                return false;
            cpu0.store(VirtAddr(0x4000), 7);
            return true;
        }
        return false;
    }

    Machine machine;
    Cpu cpu0;
    Cpu cpu1;
    Cpu cpu2;
};

TEST(MesiConformance, LocalTableMatchesHardware)
{
    for (MesiState s : allMesiStates) {
        for (MesiLocalEvent e : allMesiLocalEvents) {
            for (bool peer : {false, true}) {
                MesiRig rig;
                if (!rig.setup(s, peer))
                    continue;
                ASSERT_EQ(rig.state(0), s);

                const std::uint64_t reads = rig.stat("bus.reads");
                const std::uint64_t rdx =
                    rig.stat("bus.read_exclusives");
                const std::uint64_t upg = rig.stat("bus.upgrades");

                if (e == MesiLocalEvent::Read)
                    rig.cpu0.load(VirtAddr(0x4000));
                else
                    rig.cpu0.store(VirtAddr(0x4000), 9);

                const MesiLocalTransition t =
                    mesiLocalTransition(s, e);
                EXPECT_EQ(rig.state(0),
                          peer ? t.nextIfPeerHolds : t.next)
                    << mesiStateName(s) << " + "
                    << mesiLocalEventName(e)
                    << (peer ? " (peer copy)" : "");

                // The bus transaction column, via the bus.* counters
                // (registered only on machines with a bus; see
                // counter_coverage_test).
                const std::uint64_t d_reads =
                    rig.stat("bus.reads") - reads;
                const std::uint64_t d_rdx =
                    rig.stat("bus.read_exclusives") - rdx;
                const std::uint64_t d_upg =
                    rig.stat("bus.upgrades") - upg;
                EXPECT_EQ(d_reads,
                          t.bus == MesiBusOp::BusRead ? 1u : 0u);
                EXPECT_EQ(d_rdx,
                          t.bus == MesiBusOp::BusReadExclusive ? 1u
                                                               : 0u);
                EXPECT_EQ(d_upg,
                          t.bus == MesiBusOp::BusUpgrade ? 1u : 0u);
            }
        }
    }
}

TEST(MesiConformance, SnoopTableMatchesHardware)
{
    for (MesiState s : allMesiStates) {
        for (MesiSnoopEvent e : allMesiSnoopEvents) {
            MesiRig rig;
            // cpu0 holds @p s; Shared needs cpu1 as the co-holder,
            // so cpu2 plays the requester in every scenario.
            if (!rig.setup(s, s == MesiState::Shared))
                continue;
            ASSERT_EQ(rig.state(0), s);

            const std::uint64_t iv = rig.stat("bus.interventions");
            if (e == MesiSnoopEvent::BusRead)
                rig.cpu2.load(VirtAddr(0x4000));
            else
                rig.cpu2.store(VirtAddr(0x4000), 11);

            const MesiSnoopTransition t = mesiSnoopTransition(s, e);
            EXPECT_EQ(rig.state(0), t.next)
                << mesiStateName(s) << " + " << mesiSnoopEventName(e);
            // A write-back surfaces as a bus intervention.
            EXPECT_EQ(rig.stat("bus.interventions") - iv,
                      t.writeBack ? 1u : 0u)
                << mesiStateName(s) << " + " << mesiSnoopEventName(e);
        }
    }
}

// ---------------------------------------------------------------------
// Unchanged consistency rules: LazyPmap on a 2-CPU machine.
// ---------------------------------------------------------------------

class MpPmapTest : public ::testing::Test
{
  protected:
    MpPmapTest()
        : machine(mpParams(2)),
          oracle(machine.memory().sizeBytes()),
          pmap(machine, PolicyConfig::configF()), cpu0(machine, 0),
          cpu1(machine, 1)
    {
        machine.setObserver(&oracle);
        for (Cpu *c : {&cpu0, &cpu1}) {
            c->setSpace(1);
            c->setFaultHandler([this](const Fault &f) {
                return pmap.resolveConsistencyFault(f.address, f.access);
            });
        }
    }

    Machine machine;
    ConsistencyOracle oracle;
    LazyPmap pmap;
    Cpu cpu0;
    Cpu cpu1;
};

TEST_F(MpPmapTest, AlignedSharingAcrossCpusIsFreeAndConsistent)
{
    // Same virtual address on both CPUs: same colour, one hardware
    // set across the two caches — the Section 3.3 claim.
    pmap.enter(SpaceVa(1, VirtAddr(0x4000)), 2, Protection::all(),
               AccessType::Store, {});
    for (std::uint32_t i = 0; i < 16; ++i) {
        (i % 2 ? cpu1 : cpu0).store(VirtAddr(0x4000), i);
        EXPECT_EQ((i % 2 ? cpu0 : cpu1).load(VirtAddr(0x4000)), i);
    }
    EXPECT_EQ(machine.stats().value("pmap.d_page_flushes"), 0u);
    EXPECT_TRUE(oracle.clean());
}

TEST_F(MpPmapTest, UnalignedAliasAcrossCpusStillNeedsSoftware)
{
    // cpu0 writes via colour 1; cpu1 reads via colour 2. The software
    // rules are exactly the uniprocessor ones (broadcast ops).
    pmap.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::all(),
               AccessType::Store, {});
    pmap.enter(SpaceVa(1, VirtAddr(0x2000)), 7, Protection::all(),
               AccessType::Load, {});
    cpu0.store(VirtAddr(0x1000), 4242);
    EXPECT_EQ(cpu1.load(VirtAddr(0x2000)), 4242u);
    EXPECT_GE(machine.stats().value("pmap.d_page_flushes"), 1u);
    EXPECT_TRUE(oracle.clean());
}

TEST_F(MpPmapTest, BroadcastFlushReachesTheOwningCpu)
{
    // Dirty data sits in cpu1's cache; a DMA-read prepared through the
    // pmap must flush it even though the pmap has no idea which CPU
    // owns the line.
    pmap.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::all(),
               AccessType::Store, {});
    cpu1.store(VirtAddr(0x1000), 99);
    pmap.dmaRead(7, true);
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 99u);
}

// ---------------------------------------------------------------------
// Full system on 1/2/4 CPUs.
// ---------------------------------------------------------------------

class MpWorkloadTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(MpWorkloadTest, WorkloadsConsistentOnMultiprocessors)
{
    auto [ncpus, policy_idx] = GetParam();
    std::vector<PolicyConfig> policies = {
        PolicyConfig::configA(), PolicyConfig::configF(),
        PolicyConfig::tut()};

    KernelBuild::Params p;
    p.numSourceFiles = 6;
    p.compilerTextPages = 2;
    p.computePerFile = 1000;
    KernelBuild wl(p);
    RunResult r = runWorkload(wl, policies[std::size_t(policy_idx)],
                              mpParams(std::uint32_t(ncpus)));
    EXPECT_EQ(r.oracleViolations, 0u)
        << ncpus << " cpus under " << r.policy;
}

INSTANTIATE_TEST_SUITE_P(CpusXPolicies, MpWorkloadTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Range(0, 3)));

TEST(MpWorkloadExtraTest, AfsOnTwoCpus)
{
    AfsBench::Params p;
    p.numFiles = 8;
    p.computePerFile = 1000;
    AfsBench wl(p);
    RunResult r = runWorkload(wl, PolicyConfig::configF(), mpParams(2));
    EXPECT_EQ(r.oracleViolations, 0u);
}

TEST(MpWorkloadExtraTest, ContrivedAliasOnTwoCpus)
{
    for (bool aligned : {true, false}) {
        ContrivedAlias wl({aligned, 2000, true});
        RunResult r =
            runWorkload(wl, PolicyConfig::configF(), mpParams(2));
        EXPECT_EQ(r.oracleViolations, 0u) << aligned;
    }
}

TEST(MpWorkloadExtraTest, BrokenPolicyStillBreaksOnMp)
{
    // Hardware coherence does NOT absolve the OS of alias management:
    // the within-cache unaligned alias still goes stale.
    ContrivedAlias wl({false, 2000, true});
    RunResult r = runWorkload(wl, PolicyConfig::broken(), mpParams(2));
    EXPECT_GT(r.oracleViolations, 0u);
}

} // anonymous namespace
} // namespace vic
