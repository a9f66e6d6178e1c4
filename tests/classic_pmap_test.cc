/**
 * @file
 * Tests for ClassicPmap — the eager "old" strategy of Section 2.5 and
 * the Table 5 related-work variants (Utah/Apollo eager clean, Tut
 * per-VA lazy residue, Sun constrained aliases).
 */

#include <gtest/gtest.h>

#include "core/classic_pmap.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "pmap_handle_stream.hh"

namespace vic
{
namespace
{

class ClassicPmapTest : public ::testing::Test
{
  protected:
    explicit ClassicPmapTest(PolicyConfig cfg = PolicyConfig::configA())
        : machine(MachineParams::hp720()), pmap(machine, cfg),
          cpu(machine)
    {
        cpu.setSpace(1);
        cpu.setFaultHandler([this](const Fault &f) {
            if (pmap.resolveConsistencyFault(f.address, f.access))
                return true;
            // The classic strategy breaks mappings; model the OS
            // re-entering them on the resulting mapping fault.
            auto it = knownMappings.find(f.address);
            if (f.type == FaultType::Unmapped &&
                it != knownMappings.end()) {
                pmap.enter(f.address, it->second, Protection::all(),
                           f.access, {});
                return true;
            }
            return false;
        });
    }

    void
    map(VirtAddr va, FrameId frame,
        AccessType access = AccessType::Load)
    {
        knownMappings[SpaceVa(1, va)] = frame;
        pmap.enter(SpaceVa(1, va), frame, Protection::all(), access, {});
    }

    VirtAddr
    vaOfColour(CachePageId colour, std::uint32_t replica = 0)
    {
        const std::uint32_t colours =
            machine.dcache().geometry().numColours();
        return VirtAddr((std::uint64_t(replica) * colours + colour) *
                        machine.pageBytes());
    }

    std::uint64_t
    stat(const char *name)
    {
        return machine.stats().value(name);
    }

    Machine machine;
    ClassicPmap pmap;
    Cpu cpu;
    std::unordered_map<SpaceVa, FrameId> knownMappings;
};

TEST_F(ClassicPmapTest, SingleMappingJustWorks)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 5);
    EXPECT_EQ(cpu.load(vaOfColour(1)), 5u);
    EXPECT_EQ(stat("pmap.d_page_flushes"), 0u);
}

TEST_F(ClassicPmapTest, UnmapCleansEagerly)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 5);
    pmap.remove(SpaceVa(1, vaOfColour(1)));
    // Dirty page: flushed at unmap, data reaches memory immediately.
    EXPECT_EQ(stat("pmap.d_flush.unmap"), 1u);
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 5u);
}

TEST_F(ClassicPmapTest, UnmapOfCleanPagePurges)
{
    map(vaOfColour(1), 7);
    cpu.load(vaOfColour(1));
    pmap.remove(SpaceVa(1, vaOfColour(1)));
    EXPECT_EQ(stat("pmap.d_purge.unmap"), 1u);
    EXPECT_EQ(stat("pmap.d_flush.unmap"), 0u);
}

TEST_F(ClassicPmapTest, WriteToUnalignedAliasBreaksOther)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 11);
    // Creating a read alias breaks the writable mapping (flush)...
    map(vaOfColour(2), 7);
    EXPECT_EQ(stat("pmap.d_flush.alias"), 1u);
    EXPECT_EQ(cpu.load(vaOfColour(2)), 11u);

    // ...and a later write through the alias faults, breaking the
    // other read mapping, then sees consistent data throughout.
    cpu.store(vaOfColour(2), 22);
    EXPECT_EQ(cpu.load(vaOfColour(1)), 22u);
}

TEST_F(ClassicPmapTest, ConsistencyFaultWalksThePageTableOnce)
{
    // A read-only mapping and an unaligned alias, which comes in
    // read-only too: a store through the alias faults and breaks the
    // other mapping.
    pmap.enter(SpaceVa(1, vaOfColour(1)), 7, Protection::readOnly(),
               AccessType::Load, {});
    map(vaOfColour(2), 7);
    const std::uint64_t walks = machine.pageTable().walkCount();
    const std::uint64_t refills = stat("tlb.misses");
    const std::uint64_t faults = cpu.faultCount();

    cpu.store(vaOfColour(2), 5);
    EXPECT_EQ(cpu.faultCount(), faults + 1);
    EXPECT_EQ(stat("pmap.d_purge.alias"), 1u);
    // The CPU's refills (before the fault and after the shootdown)
    // plus the pmap's one lookup of the faulting page; the broken
    // mapping's modified bit and the new protection go through the
    // mappings' handles.
    EXPECT_EQ(machine.pageTable().walkCount() - walks,
              stat("tlb.misses") - refills + 1);
}

TEST_F(ClassicPmapTest, FrameOutOfRangePanics)
{
    const FrameId past = machine.params().numFrames;
    EXPECT_DEATH(map(vaOfColour(1), past), "frame 512 out of range");
    EXPECT_DEATH(pmap.mappingList(past), "out of range");
    EXPECT_DEATH(pmap.dmaRead(past, true), "out of range");
}

TEST_F(ClassicPmapTest, AlignedAliasesCoexist)
{
    map(vaOfColour(3), 7);
    cpu.store(vaOfColour(3), 5);
    map(vaOfColour(3, 1), 7);
    EXPECT_EQ(stat("pmap.d_flush.alias"), 0u);
    EXPECT_EQ(cpu.load(vaOfColour(3, 1)), 5u);
}

TEST_F(ClassicPmapTest, PingPongCostsAFlushPerSwitch)
{
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    for (std::uint32_t i = 0; i < 10; ++i) {
        VirtAddr w = i % 2 ? vaOfColour(2) : vaOfColour(1);
        VirtAddr r = i % 2 ? vaOfColour(1) : vaOfColour(2);
        cpu.store(w, i);
        EXPECT_EQ(cpu.load(r), i);
    }
    EXPECT_GE(stat("pmap.d_flush.alias"), 10u);
}

TEST_F(ClassicPmapTest, DmaReadFlushesOnlyModifiedMappings)
{
    map(vaOfColour(1), 7);
    cpu.load(vaOfColour(1));
    pmap.dmaRead(7, true);
    EXPECT_EQ(stat("pmap.d_flush.dma_read"), 0u);  // clean: skip

    cpu.store(vaOfColour(1), 3);
    pmap.dmaRead(7, true);
    EXPECT_EQ(stat("pmap.d_flush.dma_read"), 1u);
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 3u);
}

TEST_F(ClassicPmapTest, DmaWritePurgesThroughMappings)
{
    map(vaOfColour(1), 7);
    cpu.load(vaOfColour(1));
    pmap.dmaWrite(7);
    EXPECT_EQ(stat("pmap.d_purge.dma_write"), 1u);
    machine.memory().writeWord(machine.frameAddr(7), 0x99);
    EXPECT_EQ(cpu.load(vaOfColour(1)), 0x99u);  // no shadowing
}

TEST_F(ClassicPmapTest, ExecutableUnmapAlsoPurgesICache)
{
    map(vaOfColour(1), 7, AccessType::IFetch);
    cpu.ifetch(vaOfColour(1));
    pmap.remove(SpaceVa(1, vaOfColour(1)));
    EXPECT_EQ(stat("pmap.i_purge.unmap"), 1u);
}

TEST_F(ClassicPmapTest, UnmapOfCleanAlignedSiblingMustNotLoseDirtyData)
{
    // Regression test for a bug the fuzzer found: two ALIGNED mappings
    // share the cache page; the data is written (and its modified bit
    // set) through one of them. Unmapping the OTHER (clean) sibling
    // used to purge the shared cache page, destroying the dirty data.
    map(vaOfColour(2), 7);           // writable mapping A
    cpu.store(vaOfColour(2), 4242);  // dirty via A
    map(vaOfColour(2, 1), 7);        // aligned sibling B (clean PTE)

    pmap.remove(SpaceVa(1, vaOfColour(2, 1)));  // unmap B
    // B's removal must FLUSH (the colour is dirty via A), not purge.
    EXPECT_EQ(stat("pmap.d_flush.unmap"), 1u);
    EXPECT_EQ(stat("pmap.d_purge.unmap"), 0u);
    EXPECT_EQ(cpu.load(vaOfColour(2)), 4242u);
}

TEST_F(ClassicPmapTest, BreakOfCleanAlignedSiblingMustNotLoseDirtyData)
{
    // Same hazard through the alias-breaking path: an unaligned write
    // breaks both aligned siblings; whichever is broken first must
    // flush the shared dirty cache page.
    map(vaOfColour(2), 7);
    cpu.store(vaOfColour(2), 515);
    map(vaOfColour(2, 1), 7);  // aligned sibling

    map(vaOfColour(5), 7, AccessType::Store);  // unaligned write-enter
    cpu.store(vaOfColour(5), 616);
    EXPECT_EQ(cpu.load(vaOfColour(5)), 616u);
    // The 515 write must have reached memory through a flush before
    // colour 5's fill — never been purged away.
    // (Re-entering colour 2 reads whatever the memory system holds;
    // 616 is the newest value at word 0.)
    EXPECT_EQ(cpu.load(vaOfColour(2)), 616u);
}

// ---------------------------------------------------------------------
// Tut: lazy unmap with per-virtual-address (equal-only) residue.
// ---------------------------------------------------------------------

class TutPmapTest : public ClassicPmapTest
{
  protected:
    TutPmapTest() : ClassicPmapTest(PolicyConfig::tut()) {}
};

TEST_F(TutPmapTest, UnmapIsLazy)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 5);
    pmap.remove(SpaceVa(1, vaOfColour(1)));
    EXPECT_EQ(stat("pmap.d_page_flushes"), 0u);  // deferred
}

TEST_F(TutPmapTest, EqualAddressReuseIsFree)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 5);
    pmap.remove(SpaceVa(1, vaOfColour(1)));

    map(vaOfColour(1), 7);  // same address again
    EXPECT_EQ(stat("pmap.d_page_flushes"), 0u);
    EXPECT_EQ(stat("pmap.d_page_purges"), 0u);
    EXPECT_EQ(cpu.load(vaOfColour(1)), 5u);
}

TEST_F(TutPmapTest, AlignedButUnequalReuseStillCleans)
{
    // Tut keeps state per virtual address, so even an ALIGNED remap
    // pays (unlike the CMU cache-page scheme) — the Table 5 contrast.
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 5);
    pmap.remove(SpaceVa(1, vaOfColour(1)));

    map(vaOfColour(1, 1), 7);  // aligned, different address
    EXPECT_EQ(stat("pmap.d_flush.newmap"), 1u);
    // No purge of the new cache page: the residue was the only place
    // the frame's lines survived, so the purge Tut historically paid
    // here is provably redundant (necessity analyzer).
    EXPECT_EQ(stat("pmap.d_page_purges"), 0u);
    EXPECT_EQ(cpu.load(vaOfColour(1, 1)), 5u);
}

TEST_F(TutPmapTest, UnalignedReuseFlushesOldAndPurgesNew)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 5);
    pmap.remove(SpaceVa(1, vaOfColour(1)));

    map(vaOfColour(2), 7);
    EXPECT_EQ(stat("pmap.d_flush.newmap"), 1u);
    // The old colour is flushed; purging the new colour is provably
    // redundant (necessity analyzer), so nothing else is paid.
    EXPECT_EQ(stat("pmap.d_page_purges"), 0u);
    EXPECT_EQ(cpu.load(vaOfColour(2)), 5u);
}

TEST_F(TutPmapTest, DmaReadFlushesDirtyResidue)
{
    map(vaOfColour(1), 7);
    cpu.store(vaOfColour(1), 9);
    pmap.remove(SpaceVa(1, vaOfColour(1)));

    pmap.dmaRead(7, true);
    EXPECT_EQ(stat("pmap.d_flush.dma_read"), 1u);
    EXPECT_EQ(machine.memory().readWord(machine.frameAddr(7)), 9u);
}

TEST_F(TutPmapTest, PreferredColourComesFromResidue)
{
    map(vaOfColour(5), 7);
    cpu.store(vaOfColour(5), 1);
    pmap.remove(SpaceVa(1, vaOfColour(5)));
    EXPECT_EQ(pmap.preferredColour(7), std::optional<CachePageId>(5));
}

// ---------------------------------------------------------------------
// Sun: aliases effectively uncacheable (break even aligned ones).
// ---------------------------------------------------------------------

class SunPmapTest : public ClassicPmapTest
{
  protected:
    SunPmapTest() : ClassicPmapTest(PolicyConfig::sun()) {}
};

TEST_F(SunPmapTest, EvenAlignedAliasesAreBroken)
{
    map(vaOfColour(3), 7);
    cpu.store(vaOfColour(3), 5);
    map(vaOfColour(3, 1), 7);  // aligned alias — still broken
    EXPECT_EQ(stat("pmap.d_flush.alias"), 1u);
    EXPECT_EQ(cpu.load(vaOfColour(3, 1)), 5u);
}

// ---------------------------------------------------------------------
// Broken: the deliberately unsound testing policy.
// ---------------------------------------------------------------------

class BrokenPmapTest : public ClassicPmapTest
{
  protected:
    BrokenPmapTest() : ClassicPmapTest(PolicyConfig::broken()) {}
};

TEST_F(BrokenPmapTest, AliasWriteProducesStaleRead)
{
    // The whole point of the broken policy: the machine really does
    // return stale data when nobody manages the cache.
    map(vaOfColour(1), 7);
    map(vaOfColour(2), 7);
    cpu.store(vaOfColour(1), 123);
    EXPECT_NE(cpu.load(vaOfColour(2)), 123u);  // stale!
    EXPECT_EQ(stat("pmap.d_page_flushes"), 0u);
    EXPECT_EQ(stat("pmap.d_page_purges"), 0u);
}

// ---------------------------------------------------------------------
// Handles: every listed mapping's pte is the page table's entry.
// ---------------------------------------------------------------------

class ClassicPmapHandleTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ClassicPmapHandleTest, MappingHandlesStayTheTablesEntries)
{
    const PolicyConfig configs[] = {PolicyConfig::utah(),
                                    PolicyConfig::tut(),
                                    PolicyConfig::apollo(),
                                    PolicyConfig::sun()};
    Machine machine(MachineParams::hp720());
    ClassicPmap pmap(machine, configs[GetParam()]);
    runHandleStream(machine, pmap, streamSeed(0xc1a5, GetParam()),
                    [&](FrameId f) { return pmap.mappingList(f); });
}

INSTANTIATE_TEST_SUITE_P(Policies, ClassicPmapHandleTest,
                         ::testing::Range(0, 4));

} // anonymous namespace
} // namespace vic
