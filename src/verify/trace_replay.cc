#include "verify/trace_replay.hh"

#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "core/pmap.hh"
#include "dma/dma_engine.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"

namespace vic::verify
{

namespace
{

/** The physical page under analysis: every event of a trace touches
 *  it and no other. */
constexpr FrameId kFrame = 7;

} // namespace

TraceReplayer::TraceReplayer(const PolicyConfig &policy,
                             MachineParams params)
    : cfg(policy), mparams(params)
{
    // No other frame is touched, so a larger memory would only cost
    // the time to build it and the oracle's shadow of it for every
    // trace (hp720's 512 frames are 2 MB of each).
    mparams.numFrames = kFrame + 1;
}

ReplayResult
TraceReplayer::replay(const Trace &trace) const
{
    // Drive the pmap + CPU directly (no Kernel layer) so the machine
    // starts in the abstract model's initial state: nothing mapped,
    // nothing cached, and no background page-preparation traffic.
    Machine machine(mparams);
    std::unique_ptr<Pmap> pmap = Pmap::create(machine, cfg);
    Cpu cpu(machine);
    cpu.setSpace(1);

    ConsistencyOracle oracle(mparams.numFrames * mparams.pageBytes);
    machine.setObserver(&oracle);

    std::unordered_map<SpaceVa, FrameId> known;
    cpu.setFaultHandler([&](const Fault &f) {
        if (pmap->resolveConsistencyFault(f.address, f.access))
            return true;
        // The OS re-enters broken/unmapped translations on demand with
        // the faulting access type and default hints, exactly as
        // Kernel::resolveMappingFault does.
        auto it = known.find(f.address);
        if (f.type == FaultType::Unmapped && it != known.end()) {
            pmap->enter(f.address, it->second, Protection::all(),
                        f.access, {});
            return true;
        }
        return false;
    });

    ReplayResult res;
    int current_event = -1;
    oracle.setViolationHook(
        [&](const ConsistencyOracle::Violation &v) {
            if (res.firstViolationEvent < 0) {
                res.firstViolationEvent = current_event;
                res.kind = v.kind;
            }
        });

    const std::uint32_t machine_colours =
        machine.dcache().geometry().numColours();
    vic_assert(slotPlan.dColours + 1 <= machine_colours,
               "slot plan needs more colours than the machine has");

    // Virtual address of a slot: fold the abstract colour (offset by
    // one so address zero stays unused) and the replica/generation
    // into the page index. Same-colour replicas land on the same cache
    // page through different virtual pages — aligned aliases.
    std::vector<bool> gen(slotPlan.slots.size(), false);
    auto slotVa = [&](std::uint8_t slot) {
        const SlotPlan::Slot &sl = slotPlan.slots[slot];
        const std::uint64_t replica =
            sl.replica + (gen[slot] ? 2u : 0u);
        return VirtAddr((replica * machine_colours + 1 + sl.dColour) *
                        machine.pageBytes());
    };

    std::uint32_t stamp = 1;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        current_event = static_cast<int>(i);
        const Cycles start = machine.clock().now();
        const Event &e = trace[i];
        const SpaceVa sva(1, slotVa(e.slot));

        switch (e.kind) {
          case EventKind::Load:
            known[sva] = kFrame;
            cpu.load(sva.va);
            break;
          case EventKind::Store:
            known[sva] = kFrame;
            cpu.store(sva.va, stamp++);
            break;
          case EventKind::IFetch:
            known[sva] = kFrame;
            cpu.ifetch(sva.va);
            break;

          case EventKind::Unmap:
          case EventKind::UnmapMove:
            known.erase(sva);
            pmap->remove(sva);
            if (e.kind == EventKind::UnmapMove)
                gen[e.slot] = !gen[e.slot];
            break;

          case EventKind::DmaIn: {
            pmap->dmaWrite(kFrame);
            const std::uint32_t w = 0x80000000u + stamp++;
            machine.dma().deviceWrite(machine.frameAddr(kFrame), &w, 1);
            break;
          }
          case EventKind::DmaOut: {
            pmap->dmaRead(kFrame, /*need_data=*/true);
            std::uint32_t w = 0;
            machine.dma().deviceRead(machine.frameAddr(kFrame), &w, 1);
            break;
          }
        }
        res.eventCycles.push_back(machine.clock().now() - start);
    }

    res.violated = oracle.violationCount() > 0;
    res.violationCount = oracle.violationCount();

    machine.setObserver(nullptr);
    return res;
}

} // namespace vic::verify
