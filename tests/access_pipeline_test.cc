/** @file Tests for the staged access pipeline (DESIGN.md "Access
 *  pipeline"): fast-path vs slow-path equivalence on aliased pages,
 *  the fault-retry boundary, referenced/modified bits through the
 *  TLB's mutable PTE handle, page-table walks per access, observer
 *  delivery, and batched-vs-single access identity. */

#include <gtest/gtest.h>

#include <vector>

#include "machine/cpu.hh"
#include "machine/machine.hh"

namespace vic
{
namespace
{

class AccessPipelineTest : public ::testing::Test
{
  protected:
    AccessPipelineTest() : machine(MachineParams::hp720()), cpu(machine)
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

// ---------------------------------------------------------------------
// Fast-path vs slow-path equivalence on aliased pages.
// ---------------------------------------------------------------------

/** Two virtual pages of DIFFERENT cache colours mapped to one frame:
 *  the unaligned-alias configuration the paper's consistency rules
 *  exist for. One machine reaches the data entirely through the fast
 *  path (mapped read-write from the start); the other forces every
 *  first touch through the slow path (protection faults upgraded by
 *  the handler). Both must converge to identical functional state —
 *  loaded values and per-alias cache contents. */
TEST(AccessPipelineEquivalence, AliasedPagesFastVsSlowPath)
{
    const MachineParams params = MachineParams::hp720();
    // Distinct colours: the d-cache spans 16 pages, so va and
    // va + pageBytes land in different cache pages.
    const VirtAddr va_a(0x40000);
    const VirtAddr va_b(0x40000 + params.pageBytes);
    const FrameId frame = 7;

    auto drive = [&](Machine &m, Cpu &c) {
        c.store(va_a, 0x1111);
        c.store(va_b.plus(16), 0x2222);
        (void)c.load(va_a);
        (void)c.load(va_b);
        c.store(va_a.plus(16), 0x3333);
        (void)c.load(va_b.plus(16));
        (void)m;
    };

    // Fast machine: everything mapped read-write up front.
    Machine fast(params);
    Cpu fast_cpu(fast);
    fast_cpu.setSpace(1);
    fast.pageTable().enter(SpaceVa(1, va_a), frame,
                           Protection::readWrite());
    fast.pageTable().enter(SpaceVa(1, va_b), frame,
                           Protection::readWrite());
    drive(fast, fast_cpu);
    EXPECT_EQ(fast_cpu.faultCount(), 0u);

    // Slow machine: pages start read-only; every store's first touch
    // traps and the handler upgrades the protection in place.
    Machine slow(params);
    Cpu slow_cpu(slow);
    slow_cpu.setSpace(1);
    slow.pageTable().enter(SpaceVa(1, va_a), frame,
                           Protection::readOnly());
    slow.pageTable().enter(SpaceVa(1, va_b), frame,
                           Protection::readOnly());
    slow_cpu.setFaultHandler([&](const Fault &f) {
        EXPECT_EQ(f.type, FaultType::Protection);
        slow.pageTable().setProtection(f.address,
                                       Protection::readWrite());
        return true;
    });
    drive(slow, slow_cpu);
    EXPECT_GE(slow_cpu.faultCount(), 1u);

    // Functional state agrees: loads see the same words, and each
    // alias line holds the same data and dirty state in both caches.
    for (const VirtAddr va :
         {va_a, va_b, va_a.plus(16), va_b.plus(16)}) {
        const PhysAddr pa(frame * params.pageBytes +
                          (va.value & (params.pageBytes - 1)));
        const Cache::Probe pf = fast.dcache().probe(va, pa);
        const Cache::Probe ps = slow.dcache().probe(va, pa);
        EXPECT_EQ(pf.present, ps.present);
        EXPECT_EQ(pf.dirty, ps.dirty);
        EXPECT_EQ(pf.word, ps.word);
        EXPECT_EQ(fast_cpu.load(va), slow_cpu.load(va));
    }

    // The slow machine's extra cycles are exactly fault deliveries
    // (trap cost), never divergent cache behaviour.
    EXPECT_GT(slow.clock().now(), fast.clock().now());
}

// ---------------------------------------------------------------------
// Fault-retry boundary at maxFaultRetries.
// ---------------------------------------------------------------------

/** A handler that repairs the mapping on its 7th invocation lets the
 *  8th attempt (the last) succeed — the access completes with exactly
 *  7 faults. */
TEST_F(AccessPipelineTest, RetrySucceedsWhenFixedBeforeLastAttempt)
{
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        if (++faults == 7)
            map(f.address.va, 2, Protection::readWrite());
        return true;
    });
    cpu.store(VirtAddr(0x4000), 99);
    EXPECT_EQ(faults, 7);
    EXPECT_EQ(cpu.faultCount(), 7u);
    EXPECT_EQ(cpu.load(VirtAddr(0x4000)), 99u);
}

/** A handler that repairs the mapping only on its 8th invocation is
 *  one fault too late: all retry attempts are exhausted delivering
 *  faults, and the pipeline must diagnose the livelock rather than
 *  retry forever. */
TEST_F(AccessPipelineTest, RetryLivelocksWhenFixedOneFaultTooLate)
{
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        if (++faults == 8)
            map(f.address.va, 2, Protection::readWrite());
        return true;
    });
    EXPECT_DEATH(cpu.load(VirtAddr(0x4000)), "livelock");
}

// ---------------------------------------------------------------------
// Referenced/modified bits via the mutable PTE handle.
// ---------------------------------------------------------------------

/** translate() must hand back the live page-table entry itself — the
 *  same object lookupMutable() finds — and the pipeline must set
 *  referenced/modified through it. */
TEST_F(AccessPipelineTest, TranslateReturnsLivePteHandle)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    PageTableEntry *handle =
        machine.tlb().translate(SpaceVa(1, VirtAddr(0x4000)));
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle, machine.pageTable().lookupMutable(
                          SpaceVa(1, VirtAddr(0x4000))));

    EXPECT_FALSE(handle->referenced);
    (void)cpu.load(VirtAddr(0x4000));
    EXPECT_TRUE(handle->referenced);
    EXPECT_FALSE(handle->modified);
    cpu.store(VirtAddr(0x4000), 1);
    EXPECT_TRUE(handle->modified);
}

/** Protection changes mutate the entry in place, so a cached handle —
 *  and therefore a TLB hit — observes them immediately, even without
 *  a shootdown. This is the read-through behaviour the consistency
 *  algorithm's protection downgrades depend on. */
TEST_F(AccessPipelineTest, CachedHandleSeesInPlaceProtectionDowngrade)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    cpu.store(VirtAddr(0x4000), 5); // TLB entry + handle now cached
    machine.pageTable().setProtection(SpaceVa(1, VirtAddr(0x4000)),
                                      Protection::readOnly());
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        ++faults;
        EXPECT_EQ(f.type, FaultType::Protection);
        machine.pageTable().setProtection(f.address,
                                          Protection::readWrite());
        return true;
    });
    cpu.store(VirtAddr(0x4000), 6); // must trap despite the TLB hit
    EXPECT_EQ(faults, 1);
}

// ---------------------------------------------------------------------
// Page-table walks per access.
// ---------------------------------------------------------------------

/** The pipeline's contract (satellite of the double-lookup fix): at
 *  most one page-table walk per access, and zero on a TLB hit. */
TEST_F(AccessPipelineTest, AtMostOneWalkPerAccessAndZeroOnTlbHit)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());

    // First touch: TLB miss -> exactly one refill walk.
    std::uint64_t walks = machine.pageTable().walkCount();
    (void)cpu.load(VirtAddr(0x4000));
    EXPECT_EQ(machine.pageTable().walkCount() - walks, 1u);

    // Subsequent touches of the page: TLB hits -> zero walks, for
    // loads, stores and repeated accesses alike.
    walks = machine.pageTable().walkCount();
    for (int i = 0; i < 16; ++i) {
        cpu.store(VirtAddr(0x4000 + 4 * i), i);
        (void)cpu.load(VirtAddr(0x4000 + 4 * i));
    }
    EXPECT_EQ(machine.pageTable().walkCount() - walks, 0u);

    // A faulting access walks at most once per retry attempt.
    walks = machine.pageTable().walkCount();
    cpu.setFaultHandler([&](const Fault &f) {
        map(f.address.va, 3, Protection::readWrite());
        return true;
    });
    (void)cpu.load(VirtAddr(0x9000));
    // Attempt 1 misses on the unmapped page (1 walk, no refill);
    // attempt 2 misses and refills (1 walk).
    EXPECT_LE(machine.pageTable().walkCount() - walks, 2u);
}

// ---------------------------------------------------------------------
// Observer flag.
// ---------------------------------------------------------------------

struct CountingObserver : MemoryObserver
{
    int loads = 0, stores = 0, ifetches = 0;
    void cpuLoad(PhysAddr, std::uint32_t) override { ++loads; }
    void cpuStore(PhysAddr, std::uint32_t) override { ++stores; }
    void cpuIFetch(PhysAddr, std::uint32_t) override { ++ifetches; }
};

TEST_F(AccessPipelineTest, ObserverSeesEveryAccess)
{
    map(VirtAddr(0x4000), 2, Protection::all());
    CountingObserver obs;
    machine.setObserver(&obs);

    cpu.loadRange(VirtAddr(0x4000), 8, 4);
    EXPECT_EQ(obs.loads, 8);
    cpu.storeRange(VirtAddr(0x4000), 8, 4, 1, 1);
    EXPECT_EQ(obs.stores, 8);
    cpu.ifetchRange(VirtAddr(0x4000), 8, 4);
    EXPECT_EQ(obs.ifetches, 8);
}

// ---------------------------------------------------------------------
// Batched-vs-single access identity.
// ---------------------------------------------------------------------

/** The batched API must be indistinguishable from a loop of single
 *  accesses: same values, same cycle count, same stats snapshot, same
 *  fault count — on fresh machines driven identically. */
TEST(AccessPipelineBatch, BatchedMatchesSingleAccessExactly)
{
    const MachineParams params = MachineParams::hp720();
    const VirtAddr base(0x40000);
    const std::uint32_t n = 64;

    auto setup = [&](Machine &m, Cpu &c) {
        c.setSpace(1);
        m.pageTable().enter(SpaceVa(1, base), 4, Protection::all());
        m.pageTable().enter(
            SpaceVa(1, base.plus(params.pageBytes)), 5,
            Protection::all());
    };

    Machine single(params);
    Cpu single_cpu(single);
    setup(single, single_cpu);
    std::vector<std::uint32_t> single_values;
    for (std::uint32_t i = 0; i < n; ++i)
        single_cpu.store(base.plus(4 * i), 1000 + 3 * i);
    for (std::uint32_t i = 0; i < n; ++i)
        single_values.push_back(single_cpu.load(base.plus(4 * i)));
    for (std::uint32_t i = 0; i < 8; ++i)
        single_values.push_back(
            single_cpu.ifetch(base.plus(params.pageBytes + 32 * i)));
    // Store + load through access(), then a load.
    single_cpu.store(base, 42);
    (void)single_cpu.load(base);
    single_values.push_back(single_cpu.load(base));

    Machine batched(params);
    Cpu batched_cpu(batched);
    setup(batched, batched_cpu);
    std::vector<std::uint32_t> batched_values;
    batched_cpu.storeRange(base, n, 4, 1000, 3);
    for (std::uint32_t i = 0; i < n; ++i)
        batched_values.push_back(batched_cpu.load(base.plus(4 * i)));
    for (std::uint32_t i = 0; i < 8; ++i)
        batched_values.push_back(
            batched_cpu.ifetch(base.plus(params.pageBytes + 32 * i)));
    batched_cpu.access(AccessType::Store, base, 42);
    batched_cpu.access(AccessType::Load, base, 0);
    batched_values.push_back(batched_cpu.load(base));

    EXPECT_EQ(single_values, batched_values);
    EXPECT_EQ(single.clock().now(), batched.clock().now());
    EXPECT_EQ(single_cpu.faultCount(), batched_cpu.faultCount());
    EXPECT_EQ(single.stats().snapshot(), batched.stats().snapshot());
}

} // anonymous namespace
} // namespace vic
