#include "mc/scenario.hh"

namespace vic::mc
{

namespace
{

/** Slot table shared by the catalog: A (colour 0), B (colour 1),
 *  C (colour 0 alias of A), Y (colour 0, used with the bystander
 *  frame). */
std::vector<Slot>
standardSlots()
{
    return {{0, 0}, {1, 0}, {0, 1}, {0, 0}};
}

constexpr std::uint8_t kSlotA = 0;
constexpr std::uint8_t kSlotY = 3;

Op
cpuOp(OpKind kind, std::uint8_t slot, std::uint8_t frame_sel = 0)
{
    Op op;
    op.kind = kind;
    op.slot = slot;
    op.frameSel = frame_sel;
    return op;
}

Op
dmaOp(OpKind kind, std::uint32_t lines = 1)
{
    Op op;
    op.kind = kind;
    op.lines = lines;
    return op;
}

Thread
userThread(std::uint32_t cpu, std::uint8_t slot,
           std::uint8_t frame_sel = 0)
{
    Thread t;
    t.name = "user" + std::to_string(cpu);
    t.cpu = cpu;
    t.ops = {cpuOp(OpKind::CpuStore, slot, frame_sel),
             cpuOp(OpKind::CpuLoad, slot, frame_sel)};
    return t;
}

Scenario
base(const char *name, const PolicyConfig &policy,
     std::uint32_t num_cpus = 1, bool dma_snoops = false)
{
    Scenario s;
    s.name = name;
    s.policy = policy;
    s.mparams = mcMachineParams(num_cpus, dma_snoops);
    s.slots = standardSlots();
    return s;
}

} // namespace

MachineParams
mcMachineParams(std::uint32_t num_cpus, bool dma_snoops)
{
    MachineParams p = MachineParams::hp720();
    p.numFrames = 32;
    p.dcacheBytes = 16 * 1024; // 4 colours at 4 KB pages
    p.icacheBytes = 16 * 1024;
    p.numCpus = num_cpus;
    p.dmaSnoops = dma_snoops;
    return p;
}

std::vector<Scenario>
guardedScenarios(const PolicyConfig &policy)
{
    std::vector<Scenario> out;

    // Swap-out / buffer write-back, guarded: busy, flush, transfer,
    // wait, release. Kernel::diskTransfer flushes before it wires the
    // frame (see scenario.hh).
    {
        Scenario s = base("dma-out-guarded", policy);
        Thread pager;
        pager.name = "pager";
        pager.ops = {dmaOp(OpKind::BusyAcquire),
                     dmaOp(OpKind::PmapDmaRead),
                     dmaOp(OpKind::DmaStartRead, 2),
                     dmaOp(OpKind::DmaWait),
                     dmaOp(OpKind::BusyRelease)};
        s.threads = {userThread(0, kSlotA), pager};
        out.push_back(std::move(s));
    }

    // Swap-in / buffer fill, guarded: busy, purge, transfer, wait,
    // release. Kernel::diskTransfer purges before it wires the frame.
    {
        Scenario s = base("dma-in-guarded", policy);
        Thread pager;
        pager.name = "pager";
        pager.ops = {dmaOp(OpKind::BusyAcquire),
                     dmaOp(OpKind::PmapDmaWrite),
                     dmaOp(OpKind::DmaStartWrite, 2),
                     dmaOp(OpKind::DmaWait),
                     dmaOp(OpKind::BusyRelease)};
        s.threads = {userThread(0, kSlotA), pager};
        out.push_back(std::move(s));
    }

    // Full pageout on a two-CPU machine: the victim's translation is
    // evicted before the flush, and a second processor keeps touching
    // an unrelated frame of the same colour throughout the transfer.
    {
        Scenario s = base("pageout-guarded", policy, /*num_cpus=*/2);
        Thread pager;
        pager.name = "pager";
        pager.ops = {dmaOp(OpKind::BusyAcquire),
                     cpuOp(OpKind::PmapUnmap, kSlotA),
                     dmaOp(OpKind::PmapDmaRead),
                     dmaOp(OpKind::DmaStartRead, 2),
                     dmaOp(OpKind::DmaWait),
                     dmaOp(OpKind::BusyRelease)};
        s.threads = {userThread(0, kSlotA),
                     userThread(1, kSlotY, /*frame_sel=*/1), pager};
        out.push_back(std::move(s));
    }

    return out;
}

Scenario
flushAfterStartExemplar(const PolicyConfig &policy)
{
    Scenario s = base("flush-after-start", policy);
    Thread pager;
    pager.name = "pager-broken";
    pager.ops = {dmaOp(OpKind::DmaStartRead, 2),
                 dmaOp(OpKind::PmapDmaRead),
                 dmaOp(OpKind::DmaWait)};
    Thread user;
    user.name = "user0";
    user.cpu = 0;
    user.ops = {cpuOp(OpKind::CpuStore, kSlotA)};
    s.threads = {user, pager};
    s.expect.raceFree = false;
    s.expect.violationFree = false;
    s.expect.wantConfirmedRace = true;
    s.expect.maxCounterexample = 6;
    return s;
}

Scenario
lostWriteBackRace(const PolicyConfig &policy)
{
    Scenario s = base("lost-write-back", policy);
    Thread pager;
    pager.name = "pager-unguarded";
    pager.ops = {dmaOp(OpKind::PmapDmaRead),
                 dmaOp(OpKind::DmaStartRead, 1),
                 dmaOp(OpKind::DmaWait)};
    Thread user;
    user.name = "user0";
    user.cpu = 0;
    user.ops = {cpuOp(OpKind::CpuStore, kSlotA)};
    s.threads = {user, pager};
    s.expect.raceFree = false;
    s.expect.violationFree = false;
    s.expect.wantConfirmedRace = true;
    s.expect.maxCounterexample = 4;
    return s;
}

Scenario
snoopingVariant(const PolicyConfig &policy)
{
    Scenario s = lostWriteBackRace(policy);
    s.name = "snooping-unguarded";
    s.mparams = mcMachineParams(1, /*dma_snoops=*/true);
    s.expect.raceFree = true; // CPU/DMA pairs are benign when snooped
    s.expect.violationFree = true;
    s.expect.wantConfirmedRace = false;
    // raceFree alone would also pass if the pairs simply vanished;
    // require the benign classification to actually fire.
    s.expect.wantBenignRace = true;
    s.expect.maxCounterexample = 0;
    return s;
}

Scenario
dmaDmaOverlap(const PolicyConfig &policy)
{
    Scenario s = base("dma-dma-overlap", policy);
    for (int i = 0; i < 2; ++i) {
        Thread t;
        t.name = "dev" + std::to_string(i);
        t.ops = {dmaOp(OpKind::DmaStartWrite, 1),
                 dmaOp(OpKind::DmaWait)};
        s.threads.push_back(std::move(t));
    }
    s.expect.raceFree = false;
    return s;
}

Scenario
independentPair(const PolicyConfig &policy)
{
    Scenario s = base("independent-pair", policy, /*num_cpus=*/2);
    Thread a;
    a.name = "user0";
    a.cpu = 0;
    a.ops = {cpuOp(OpKind::CpuStore, kSlotA)};
    Thread b;
    b.name = "user1";
    b.cpu = 1;
    b.ops = {cpuOp(OpKind::CpuStore, /*slot=*/1, /*frame_sel=*/1)};
    s.threads = {a, b};
    return s;
}

Scenario
dependentPair(const PolicyConfig &policy)
{
    Scenario s = base("dependent-pair", policy, /*num_cpus=*/2);
    Thread a;
    a.name = "user0";
    a.cpu = 0;
    a.ops = {cpuOp(OpKind::CpuStore, kSlotA)};
    Thread b;
    b.name = "user1";
    b.cpu = 1;
    b.ops = {cpuOp(OpKind::CpuStore, kSlotA)};
    s.threads = {a, b};
    return s;
}

std::vector<Scenario>
standardCatalog(const PolicyConfig &policy)
{
    std::vector<Scenario> out = guardedScenarios(policy);
    out.push_back(flushAfterStartExemplar(policy));
    out.push_back(lostWriteBackRace(policy));
    out.push_back(snoopingVariant(policy));
    return out;
}

Scenario
crossCacheSharing(const PolicyConfig &policy)
{
    Scenario s = base("cross-cache-sharing", policy, /*num_cpus=*/2);
    Thread producer;
    producer.name = "writer0";
    producer.cpu = 0;
    producer.ops = {cpuOp(OpKind::CpuStore, kSlotA)};
    Thread consumer;
    consumer.name = "reader1";
    consumer.cpu = 1;
    consumer.ops = {cpuOp(OpKind::CpuLoad, kSlotA)};
    s.threads = {producer, consumer};
    s.expect.wantBenignRace = true;
    return s;
}

Scenario
nonCoherentSharing(const PolicyConfig &policy)
{
    Scenario s = crossCacheSharing(policy);
    s.name = "cross-cache-noncoherent";
    s.mparams.cpuCoherence = MachineParams::CpuCoherence::None;
    s.expect.raceFree = false;
    s.expect.violationFree = false;
    s.expect.wantConfirmedRace = true;
    s.expect.wantBenignRace = false;
    s.expect.maxCounterexample = 2;
    return s;
}

Scenario
crossCacheStores(const PolicyConfig &policy)
{
    Scenario s = dependentPair(policy);
    s.name = "cross-cache-stores";
    s.expect.wantBenignRace = true;
    return s;
}

std::vector<Scenario>
coherenceCatalog(const PolicyConfig &policy)
{
    return {crossCacheSharing(policy), crossCacheStores(policy),
            nonCoherentSharing(policy)};
}

std::vector<Scenario>
weakGuardedScenarios(const PolicyConfig &policy)
{
    std::vector<Scenario> out = guardedScenarios(policy);
    for (Scenario &s : out) {
        s.name += "-weak";
        s.memoryOrder = MemoryOrder::WeakStoreOrder;
    }
    return out;
}

Scenario
missingFenceExemplar(const PolicyConfig &policy, MemoryOrder order)
{
    Scenario s = base("dma-out-missing-fence", policy);
    s.memoryOrder = order;
    Thread writer;
    writer.name = "writer";
    writer.cpu = 0;
    writer.ops = {cpuOp(OpKind::CpuStore, kSlotA),
                  dmaOp(OpKind::PmapDmaRead),
                  dmaOp(OpKind::DmaStartRead, 1),
                  dmaOp(OpKind::DmaWait)};
    s.threads = {writer};
    if (order == MemoryOrder::WeakStoreOrder) {
        // The drain can slip past the flush and race the transfer.
        s.expect.raceFree = false;
        s.expect.violationFree = false;
        s.expect.wantConfirmedRace = true;
        s.expect.wantWeakWindow = true;
        s.expect.maxCounterexample = 5;
    }
    return s;
}

Scenario
fencedVariant(const PolicyConfig &policy)
{
    Scenario s = missingFenceExemplar(policy);
    s.name = "dma-out-fenced";
    s.threads[0].ops.insert(s.threads[0].ops.begin() + 1,
                            dmaOp(OpKind::Fence));
    s.expect = Expectation{};
    return s;
}

std::vector<Scenario>
weakCatalog(const PolicyConfig &policy)
{
    std::vector<Scenario> out = weakGuardedScenarios(policy);
    out.push_back(missingFenceExemplar(policy));
    out.push_back(fencedVariant(policy));
    return out;
}

} // namespace vic::mc
