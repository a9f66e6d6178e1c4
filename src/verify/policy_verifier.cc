#include "verify/policy_verifier.hh"

#include "common/logging.hh"
#include "mc/executor.hh"
#include "verify/reachability.hh"

namespace vic::verify
{

VerifyResult
verifyPolicy(const PolicyConfig &policy)
{
    const auto t0 = std::chrono::steady_clock::now();

    const AbstractSimulator sim(policy);

    VerifyResult res;
    res.policyName = policy.name;

    Reachability<ModelState> search(sim.initial());
    search.run(sim.alphabet(),
               [&](std::size_t from, const Event &e, ModelState &next) {
                   std::optional<AbstractViolation> v = sim.step(next, e);
                   if (!v)
                       return false;
                   // First violation in BFS order: minimal
                   // counterexample.
                   res.counterexample = search.trace(from, e);
                   res.violation = std::move(v);
                   return true;
               });

    res.sound = !search.stopped() && !search.truncated();
    res.fixedPointReached = search.stopped() || !search.truncated();
    res.numStates = search.size();
    res.numTransitions = search.transitions();
    res.diameter = search.diameter();
    res.seconds = secondsSince(t0);
    return res;
}

ReplayResult
replay(const PolicyConfig &policy, const Trace &trace,
       MachineParams machine)
{
    // The executor touches frames 7 and 9 only; a larger memory would
    // cost the time to build it and the oracle's shadow of it for every
    // trace (hp720's 512 frames are 2 MB of each).
    machine.numFrames = 10;
    vic_assert(kSlotColours < machine.dcacheGeometry().numColours(),
               "the slots need more colours than the machine has");

    mc::Scenario scn;
    scn.policy = policy;
    scn.mparams = machine;
    // Each slot, then its moved twin: same colour, two replicas on.
    scn.slots.assign(kSlots.begin(), kSlots.end());
    for (mc::Slot s : kSlots) {
        s.replica += 2;
        scn.slots.push_back(s);
    }

    mc::Thread &cpu = scn.threads.emplace_back();
    cpu.name = "trace";
    std::vector<std::size_t> opEvent; // the event each op belongs to
    std::array<bool, kSlots.size()> moved{};
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Event &e = trace[i];
        const auto add = [&](mc::OpKind kind) {
            mc::Op op;
            op.kind = kind;
            op.slot = static_cast<std::uint8_t>(
                e.slot + (moved[e.slot] ? kSlots.size() : 0));
            cpu.ops.push_back(op);
            opEvent.push_back(i);
        };
        switch (e.kind) {
          case EventKind::Load: add(mc::OpKind::CpuLoad); break;
          case EventKind::Store: add(mc::OpKind::CpuStore); break;
          case EventKind::IFetch: add(mc::OpKind::CpuIFetch); break;
          case EventKind::Unmap: add(mc::OpKind::PmapUnmap); break;
          case EventKind::UnmapMove:
            add(mc::OpKind::PmapUnmap);
            moved[e.slot] = !moved[e.slot];
            break;
          case EventKind::DmaIn:
            add(mc::OpKind::PmapDmaWrite);
            add(mc::OpKind::DmaStartWrite);
            add(mc::OpKind::DmaWait);
            break;
          case EventKind::DmaOut:
            add(mc::OpKind::PmapDmaRead);
            add(mc::OpKind::DmaStartRead);
            add(mc::OpKind::DmaWait);
            break;
        }
    }

    ReplayResult res;
    res.eventCycles.assign(trace.size(), 0);
    mc::Executor ex(scn);
    std::size_t next_op = 0;
    // While a transfer is pending the thread waits, and its beats are
    // the only steps enabled: the run is the trace in program order.
    for (std::vector<int> en = ex.enabled(); !en.empty();
         en = ex.enabled()) {
        const std::size_t event = opEvent[next_op];
        const Cycles start = ex.now();
        if (ex.step(en.front()).thread == 0)
            ++next_op;
        res.eventCycles[event] += ex.now() - start;
        if (res.firstViolationEvent < 0 && ex.firstViolationStep() >= 0)
            res.firstViolationEvent = static_cast<int>(event);
    }
    vic_assert(ex.allFinished(), "the replay of %s blocked",
               traceName(trace).c_str());

    res.violationCount = ex.violationCount();
    res.violated = res.violationCount > 0;
    res.kind = ex.firstViolationKind();
    return res;
}

} // namespace vic::verify
