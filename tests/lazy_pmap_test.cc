/**
 * @file
 * Tests for LazyPmap — the paper's CacheControl algorithm (Figure 1).
 *
 * Scenario tests drive the simulated CPU through pmap-managed
 * mappings and check both the decoded Table 3 states and the actual
 * data values. The refinement test runs thousands of random
 * operations and requires the concrete encoded state to equal the
 * SpecExecutor's Table 2 state at every step, per cache, per colour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "core/lazy_pmap.hh"
#include "core/spec_executor.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "pmap_handle_stream.hh"

namespace vic
{
namespace
{

using S = CachePageState;

class LazyPmapTest : public ::testing::Test
{
  protected:
    LazyPmapTest() : LazyPmapTest(PolicyConfig::configF()) {}

    explicit LazyPmapTest(PolicyConfig cfg)
        : machine(MachineParams::hp720()), pmap(machine, cfg),
          cpu(machine)
    {
        cpu.setSpace(1);
        cpu.setFaultHandler([this](const Fault &f) {
            ++consistencyFaults;
            return pmap.resolveConsistencyFault(f.address, f.access);
        });
    }

    /** Map (space 1, va) -> frame with full permissions. */
    void
    map(VirtAddr va, FrameId frame,
        Protection prot = Protection::all(),
        AccessType access = AccessType::Load)
    {
        pmap.enter(SpaceVa(1, va), frame, prot, access, {});
    }

    VirtAddr
    vaOfColour(CachePageId colour, std::uint32_t replica = 0)
    {
        const std::uint32_t colours =
            machine.dcache().geometry().numColours();
        return VirtAddr((std::uint64_t(replica) * colours + colour) *
                        machine.pageBytes());
    }

    Machine machine;
    LazyPmap pmap;
    Cpu cpu;
    int consistencyFaults = 0;
};

TEST_F(LazyPmapTest, FirstReadMakesPagePresent)
{
    map(vaOfColour(1), 7);
    cpu.load(vaOfColour(1));
    EXPECT_EQ(pmap.dataState(7, 1), S::Present);
    EXPECT_EQ(pmap.dataState(7, 2), S::Empty);
}

TEST_F(LazyPmapTest, WriteMakesPageDirtyAndVisible)
{
    map(vaOfColour(1), 7, Protection::all(), AccessType::Store);
    cpu.store(vaOfColour(1), 99);
    EXPECT_EQ(pmap.dataState(7, 1), S::Dirty);
    EXPECT_EQ(cpu.load(vaOfColour(1)), 99u);
}

TEST_F(LazyPmapTest, ModifiedBitDefersDirtyTracking)
{
    // Entered for reading, then silently written: the decoded state
    // stays Present until the next CacheControl syncs the hardware
    // modified bit (the Section 4.1 optimisation).
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 99);
    EXPECT_EQ(pmap.dataState(7, 1), S::Present);
    pmap.dmaRead(7, true);  // forces the sync (and the flush)
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 99u);
}

TEST_F(LazyPmapTest, UnalignedAliasReadSeesFreshData)
{
    // The headline scenario: write via colour 1, read via colour 2.
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    cpu.store(vaOfColour(1), 1234);
    EXPECT_EQ(cpu.load(vaOfColour(2)), 1234u);
    // The dirty page was flushed (D -> E) and the target is present.
    EXPECT_EQ(pmap.dataState(7, 1), S::Empty);
    EXPECT_EQ(pmap.dataState(7, 2), S::Present);
    EXPECT_EQ(machine.stats().value("pmap.d_page_flushes"), 1u);
}

TEST_F(LazyPmapTest, AlignedAliasesNeedNoConsistencyWork)
{
    map(vaOfColour(3), 7);
    map(vaOfColour(3, 1), 7);  // same colour, different page
    cpu.store(vaOfColour(3), 5);
    EXPECT_EQ(cpu.load(vaOfColour(3, 1)), 5u);
    cpu.store(vaOfColour(3, 1), 6);
    EXPECT_EQ(cpu.load(vaOfColour(3)), 6u);
    EXPECT_EQ(machine.stats().value("pmap.d_page_flushes"), 0u);
    EXPECT_EQ(machine.stats().value("pmap.d_page_purges"), 0u);
}

TEST_F(LazyPmapTest, WriteStalesOtherColoursAndPurgesOnReuse)
{
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    cpu.load(vaOfColour(2));      // colour 2 present
    cpu.store(vaOfColour(1), 8);  // colour 2 -> stale
    EXPECT_EQ(pmap.dataState(7, 2), S::Stale);

    EXPECT_EQ(cpu.load(vaOfColour(2)), 8u);  // purge + fresh fetch
    EXPECT_EQ(pmap.dataState(7, 2), S::Present);
    EXPECT_GE(machine.stats().value("pmap.d_page_purges"), 1u);
}

TEST_F(LazyPmapTest, WritePingPongStaysConsistent)
{
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    for (std::uint32_t i = 0; i < 20; ++i) {
        VirtAddr w = i % 2 ? vaOfColour(2) : vaOfColour(1);
        VirtAddr r = i % 2 ? vaOfColour(1) : vaOfColour(2);
        cpu.store(w, i);
        EXPECT_EQ(cpu.load(r), i);
    }
}

TEST_F(LazyPmapTest, LazyUnmapKeepsStateAcrossRemap)
{
    map(vaOfColour(4), 7);
    cpu.store(vaOfColour(4), 31);
    pmap.remove(SpaceVa(1, vaOfColour(4)));
    EXPECT_EQ(pmap.dataState(7, 4), S::Dirty);  // state survives

    // Aligned remap: the dirty data is still in the cache; no flush,
    // no purge, and the value is there.
    auto flushes = machine.stats().value("pmap.d_page_flushes");
    map(vaOfColour(4, 1), 7);
    EXPECT_EQ(cpu.load(vaOfColour(4, 1)), 31u);
    EXPECT_EQ(machine.stats().value("pmap.d_page_flushes"), flushes);
}

TEST_F(LazyPmapTest, UnalignedRemapFlushesOldDirtyColour)
{
    map(vaOfColour(4), 7);
    cpu.store(vaOfColour(4), 31);
    pmap.remove(SpaceVa(1, vaOfColour(4)));

    map(vaOfColour(5), 7, Protection::all(), AccessType::Load);
    EXPECT_EQ(cpu.load(vaOfColour(5)), 31u);  // flushed to memory first
    EXPECT_EQ(machine.stats().value("pmap.d_page_flushes"), 1u);
}

TEST_F(LazyPmapTest, DmaReadFlushesDirtyData)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 0x77);
    pmap.dmaRead(7, true);
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 0x77u);
    // The flush writes back and invalidates, so the page is Empty;
    // the old Present bookkeeping cost a redundant purge on the next
    // differently-mapped use of the colour.
    EXPECT_EQ(pmap.dataState(7, 1), S::Empty);
    EXPECT_EQ(machine.stats().value("pmap.d_flush.dma_read"), 1u);
}

TEST_F(LazyPmapTest, DmaWritePurgesDirtyAndStalesMapped)
{
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    cpu.load(vaOfColour(2));
    cpu.store(vaOfColour(1), 0x55);

    pmap.dmaWrite(7);
    EXPECT_EQ(pmap.dataState(7, 1), S::Empty);  // purged dirty
    EXPECT_EQ(pmap.dataState(7, 2), S::Stale);
    EXPECT_EQ(machine.stats().value("pmap.d_purge.dma_write"), 1u);
    // The purge means the dirty data must NOT reach memory.
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 0u);

    // Simulate the device depositing data, then read through a
    // mapping: the stale state forces a purge and a fresh fetch.
    machine.memory().writeWord(machine.frameAddr(7), 0xabc);
    EXPECT_EQ(cpu.load(vaOfColour(2)), 0xabcu);
}

TEST_F(LazyPmapTest, IFetchForcesFlushOfDirtyDataPage)
{
    // The D->I path: prepare (write) a page, then execute it.
    map(vaOfColour(1), 7, Protection::all(), AccessType::Store);
    cpu.store(vaOfColour(1), 0x4e71);
    EXPECT_EQ(cpu.ifetch(vaOfColour(1)), 0x4e71u);
    EXPECT_EQ(machine.stats().value("pmap.d_flush.ifetch"), 1u);
    EXPECT_EQ(pmap.instState(7, machine.icache().geometry().colourOf(
                                    vaOfColour(1))),
              S::Present);
}

TEST_F(LazyPmapTest, WriteAfterExecuteStalesInstructionCache)
{
    map(vaOfColour(1), 7, Protection::all(), AccessType::Store);
    cpu.store(vaOfColour(1), 0x1111);
    cpu.ifetch(vaOfColour(1));
    // Self-modifying write: the I-cache copy must become stale...
    cpu.store(vaOfColour(1), 0x2222);
    const CachePageId ci =
        machine.icache().geometry().colourOf(vaOfColour(1));
    EXPECT_EQ(pmap.instState(7, ci), S::Stale);
    // ...and the next ifetch purges and sees the new instruction.
    EXPECT_EQ(cpu.ifetch(vaOfColour(1)), 0x2222u);
    EXPECT_GE(machine.stats().value("pmap.i_page_purges"), 1u);
}

TEST_F(LazyPmapTest, ModifiedBitAvoidsWriteFaults)
{
    map(vaOfColour(1), 7, Protection::all(), AccessType::Store);
    cpu.store(vaOfColour(1), 10);
    consistencyFaults = 0;
    for (std::uint32_t i = 1; i < 50; ++i)
        cpu.store(vaOfColour(1).plus(4 * i), i);
    EXPECT_EQ(consistencyFaults, 0);
    // The dirtiness is still tracked: a DMA-read must flush.
    pmap.dmaRead(7, true);
    EXPECT_EQ(machine.stats().value("pmap.d_flush.dma_read"), 1u);
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 10u);
}

TEST_F(LazyPmapTest, ProtectDowngradeDeniesWrites)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 1);
    pmap.protect(SpaceVa(1, vaOfColour(1)), Protection::readOnly());
    // A store is now a genuine VM-level denial, not a consistency
    // fault: resolveConsistencyFault must refuse it.
    EXPECT_FALSE(pmap.resolveConsistencyFault(SpaceVa(1, vaOfColour(1)),
                                              AccessType::Store));
    // Reads still work.
    EXPECT_EQ(cpu.load(vaOfColour(1)), 1u);
}

TEST_F(LazyPmapTest, PreferredColourTracksData)
{
    EXPECT_FALSE(pmap.preferredColour(7).has_value());
    map(vaOfColour(3), 7);
    cpu.store(vaOfColour(3), 1);
    EXPECT_EQ(pmap.preferredColour(7), std::optional<CachePageId>(3));

    pmap.remove(SpaceVa(1, vaOfColour(3)));
    pmap.frameFreed(7);
    EXPECT_EQ(pmap.preferredColour(7), std::optional<CachePageId>(3));
}

TEST_F(LazyPmapTest, WillOverwriteSkipsPurge)
{
    // Make colour 2 stale for frame 7.
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    cpu.load(vaOfColour(2));
    cpu.store(vaOfColour(1), 7);
    pmap.remove(SpaceVa(1, vaOfColour(2)));
    ASSERT_EQ(pmap.dataState(7, 2), S::Stale);

    // Re-enter colour 2 with the overwrite promise: no purge.
    auto purges = machine.stats().value("pmap.d_page_purges");
    Pmap::EnterHints hints;
    hints.willOverwrite = true;
    pmap.enter(SpaceVa(1, vaOfColour(2, 1)), 7, Protection::all(),
               AccessType::Store, hints);
    EXPECT_EQ(machine.stats().value("pmap.d_page_purges"), purges);

    // Overwrite the page fully, then verify reads are consistent.
    for (std::uint32_t off = 0; off < machine.pageBytes(); off += 4)
        cpu.store(vaOfColour(2, 1).plus(off), off + 1);
    for (std::uint32_t off = 0; off < machine.pageBytes(); off += 4)
        EXPECT_EQ(cpu.load(vaOfColour(2, 1).plus(off)), off + 1);
}

TEST_F(LazyPmapTest, NeedDataFalseDowngradesFlushToPurge)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 42);
    pmap.remove(SpaceVa(1, vaOfColour(1)));

    // Remap at another colour declaring the old contents dead.
    Pmap::EnterHints hints;
    hints.willOverwrite = true;
    hints.needData = false;
    pmap.enter(SpaceVa(1, vaOfColour(2)), 7, Protection::all(),
               AccessType::Store, hints);
    EXPECT_EQ(machine.stats().value("pmap.d_page_flushes"), 0u);
    EXPECT_EQ(machine.stats().value("pmap.d_page_purges"), 1u);
}

TEST_F(LazyPmapTest, PlanHoldsAFlushAndAPurge)
{
    // The largest plan: stanza 2 displaces the dirty page and stanza 3
    // purges the stale target, in that order.
    const std::uint32_t colours = machine.dcache().geometry().numColours();
    CacheStateVector d(colours);
    CacheStateVector i(machine.icache().geometry().numColours());
    d.mapped.set(1);
    d.cacheDirty = true;
    d.stale.set(2);
    const LazyPmap::Plan plan = LazyPmap::planCacheControl(
        d, i, MemOp::CpuRead, 2, 2, AccessType::Load, false, true, true,
        true);
    using Op = LazyPmap::PlannedOp;
    EXPECT_EQ(std::vector<Op>(plan.begin(), plan.end()),
              (std::vector<Op>{{CacheKind::Data, RequiredOp::Flush, 1},
                               {CacheKind::Data, RequiredOp::Purge, 2}}));
    EXPECT_EQ(d.decode(2), S::Present);
}

TEST_F(LazyPmapTest, ConsistencyFaultWalksThePageTableOnce)
{
    // Two unaligned mappings: the store makes colour 2 stale, so the
    // load faults, and its CacheControl flushes colour 1, purges
    // colour 2 and reprograms both mappings.
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    cpu.store(vaOfColour(1), 5);
    const std::uint64_t walks = machine.pageTable().walkCount();
    const std::uint64_t refills = machine.stats().value("tlb.misses");
    const int faults = consistencyFaults;

    EXPECT_EQ(cpu.load(vaOfColour(2)), 5u);
    EXPECT_EQ(consistencyFaults, faults + 1);
    // The CPU's refills (before the fault and after the shootdown)
    // plus the pmap's one lookup of the faulting page; every other
    // page-table access goes through the mappings' handles.
    EXPECT_EQ(machine.pageTable().walkCount() - walks,
              machine.stats().value("tlb.misses") - refills + 1);
}

TEST_F(LazyPmapTest, FrameOutOfRangePanics)
{
    const FrameId past = machine.params().numFrames;
    EXPECT_DEATH(pmap.info(past), "frame 512 out of range");
    EXPECT_DEATH(map(vaOfColour(1), past), "out of range");
    EXPECT_DEATH(pmap.dmaWrite(past), "out of range");
}

class LazyPmapConfigBTest : public LazyPmapTest
{
  protected:
    LazyPmapConfigBTest() : LazyPmapTest(PolicyConfig::configB()) {}
};

TEST_F(LazyPmapConfigBTest, WithoutNeedDataDirtyDataIsFlushed)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 42);
    pmap.remove(SpaceVa(1, vaOfColour(1)));

    Pmap::EnterHints hints;
    hints.willOverwrite = true;  // ignored by config B
    hints.needData = false;      // ignored by config B
    pmap.enter(SpaceVa(1, vaOfColour(2)), 7, Protection::all(),
               AccessType::Store, hints);
    EXPECT_EQ(machine.stats().value("pmap.d_page_flushes"), 1u);
}

TEST_F(LazyPmapConfigBTest, WithoutWillOverwriteStalePagePurged)
{
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    cpu.load(vaOfColour(2));
    cpu.store(vaOfColour(1), 7);
    pmap.remove(SpaceVa(1, vaOfColour(2)));

    auto purges = machine.stats().value("pmap.d_page_purges");
    Pmap::EnterHints hints;
    hints.willOverwrite = true;  // ignored by config B
    pmap.enter(SpaceVa(1, vaOfColour(2, 1)), 7, Protection::all(),
               AccessType::Store, hints);
    EXPECT_GT(machine.stats().value("pmap.d_page_purges"), purges);
}

// ---------------------------------------------------------------------
// Refinement: the concrete algorithm against the abstract model.
// ---------------------------------------------------------------------

class LazyPmapRefinementTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LazyPmapRefinementTest, RandomOpsMatchSpecExactly)
{
    // Modified-bit tracking defers state updates between faults, so
    // for exact step-by-step equality it is disabled; a separate test
    // covers the deferred path.
    PolicyConfig cfg = PolicyConfig::configB();
    cfg.useModifiedBit = false;

    Machine machine(MachineParams::hp720());
    LazyPmap pmap(machine, cfg);
    Cpu cpu(machine);
    cpu.setSpace(1);
    cpu.setFaultHandler([&](const Fault &f) {
        return pmap.resolveConsistencyFault(f.address, f.access);
    });

    const std::uint32_t colours =
        machine.dcache().geometry().numColours();
    const std::uint32_t page = machine.pageBytes();
    const FrameId frame = 9;

    // One mapping per data-cache colour.
    for (CachePageId c = 0; c < colours; ++c) {
        pmap.enter(SpaceVa(1, VirtAddr(std::uint64_t(c) * page)), frame,
                   Protection::all(), AccessType::Load, {});
    }

    SpecExecutor dspec(colours);
    SpecExecutor ispec(machine.icache().geometry().numColours());
    // The enters above performed CPU-reads on every colour.
    for (CachePageId c = 0; c < colours; ++c)
        dspec.apply(MemOp::CpuRead, c);

    Random rng(1000 + GetParam());
    for (int step = 0; step < 3000; ++step) {
        const CachePageId c =
            static_cast<CachePageId>(rng.below(colours));
        const VirtAddr va(std::uint64_t(c) * page);
        switch (rng.below(5)) {
          case 0:
            cpu.load(va);
            dspec.apply(MemOp::CpuRead, c);
            break;
          case 1:
            cpu.store(va, static_cast<std::uint32_t>(step));
            dspec.apply(MemOp::CpuWrite, c);
            // A data write stales instruction-cache copies exactly
            // like a DMA-write would (nothing becomes dirty there).
            ispec.apply(MemOp::DmaWrite, std::nullopt);
            break;
          case 2:
            cpu.ifetch(va);
            // An ifetch flushes a dirty data page first (instructions
            // never align with data): Flush on the dirty colour.
            if (auto w = dspec.dirtyColour())
                dspec.apply(MemOp::Flush, *w);
            ispec.apply(MemOp::CpuRead, c);
            break;
          case 3:
            pmap.dmaRead(frame, true);
            dspec.apply(MemOp::DmaRead, std::nullopt);
            ispec.apply(MemOp::DmaRead, std::nullopt);
            break;
          case 4:
            pmap.dmaWrite(frame);
            dspec.apply(MemOp::DmaWrite, std::nullopt);
            ispec.apply(MemOp::DmaWrite, std::nullopt);
            break;
        }

        for (CachePageId k = 0; k < colours; ++k) {
            ASSERT_EQ(pmap.dataState(frame, k), dspec.state(k))
                << "step " << step << " colour " << k;
        }
        for (CachePageId k = 0; k < ispec.numColours(); ++k) {
            ASSERT_EQ(pmap.instState(frame, k), ispec.state(k))
                << "step " << step << " icolour " << k;
        }
        ASSERT_TRUE(dspec.invariantHolds());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyPmapRefinementTest,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Handles: every listed mapping's pte is the page table's entry.
// ---------------------------------------------------------------------

class LazyPmapHandleTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LazyPmapHandleTest, MappingHandlesStayTheTablesEntries)
{
    Machine machine(MachineParams::hp720());
    LazyPmap pmap(machine, GetParam() % 2 ? PolicyConfig::configB()
                                          : PolicyConfig::configF());
    runHandleStream(machine, pmap, streamSeed(0x1a2f, GetParam()),
                    [&](FrameId f) -> std::span<const VaMapping> {
                        const PhysPageInfo *pi = pmap.info(f);
                        if (!pi)
                            return {};
                        return pi->mappings;
                    });
}

INSTANTIATE_TEST_SUITE_P(Streams, LazyPmapHandleTest,
                         ::testing::Range(0, 4));

TEST(LazyPmapModifiedBitRefinement, StateAgreesAtSyncPoints)
{
    // With the modified-bit optimisation the implementation defers
    // marking the page dirty until the next CacheControl run; a DMA
    // barrier forces the sync, after which states must agree.
    Machine machine(MachineParams::hp720());
    LazyPmap pmap(machine, PolicyConfig::configF());
    Cpu cpu(machine);
    cpu.setSpace(1);
    cpu.setFaultHandler([&](const Fault &f) {
        return pmap.resolveConsistencyFault(f.address, f.access);
    });

    const std::uint32_t page = machine.pageBytes();
    pmap.enter(SpaceVa(1, VirtAddr(0)), 5, Protection::all(),
               AccessType::Store, {});
    cpu.store(VirtAddr(0), 1);
    cpu.store(VirtAddr(4), 2);  // silent (no fault) thanks to mod bit
    cpu.store(VirtAddr(8), 3);

    pmap.dmaRead(5, true);  // sync point: flush must have happened
    EXPECT_EQ(machine.memory().readWord(PhysAddr(5 * page + 4)), 2u);
    EXPECT_EQ(pmap.dataState(5, 0), CachePageState::Empty);
}

} // anonymous namespace
} // namespace vic
