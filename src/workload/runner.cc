#include "workload/runner.hh"

#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"

namespace vic
{

std::uint64_t
RunResult::stat(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
}

std::uint64_t
RunResult::sumMatching(const std::string &prefix,
                       const std::string &suffix) const
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : stats) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.starts_with(prefix) && name.ends_with(suffix))
            total += value;
    }
    return total;
}

RunResult
runWorkload(Workload &workload, const PolicyConfig &policy,
            const MachineParams &machine_params,
            const OsParams &os_params, std::size_t trace_events)
{
    Machine machine(machine_params);
    ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);
    if (trace_events > 0)
        machine.events().enable(trace_events);
    Kernel kernel(machine, policy, os_params);

    workload.run(kernel);

    // Kernel-held statistics that do not live in the machine's
    // StatSet are exported into it before the snapshot so every
    // metric a bench reads comes from the same capture point.
    machine.stats().counter("os.freelist.colour_hits") +=
        kernel.freeList().colourHits();
    machine.stats().counter("os.freelist.colour_misses") +=
        kernel.freeList().colourMisses();

    RunResult r;
    r.workload = workload.name();
    r.policy = policy.name;
    r.cycles = machine.clock().now();
    // Derive seconds from the SAME clock read as r.cycles: a second
    // read could disagree with the counter snapshot if anything (a
    // phase reset, an observer) touched the clock in between, and the
    // two fields must never tell different stories.
    r.seconds = double(r.cycles) / machine_params.clockHz;
    r.oracleViolations = oracle.violationCount();
    r.oracleChecked = oracle.checkedCount();
    r.stats = machine.stats().snapshot();
    if (trace_events > 0)
        r.traceTail = machine.events().recent(trace_events);
    return r;
}

} // namespace vic
