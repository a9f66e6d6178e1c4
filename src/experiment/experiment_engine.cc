#include "experiment/experiment_engine.hh"

#include <chrono>
#include <exception>
#include <stdexcept>

#include "common/parallel.hh"
#include "common/random.hh"

namespace vic
{

std::uint64_t
ExperimentEngine::effectiveSeed(std::uint64_t base,
                                std::uint32_t replica)
{
    return replica == 0 ? base : streamSeed(base, replica);
}

bool
ExperimentEngine::matchesFilter(const std::string &id,
                                const std::string &filter)
{
    if (filter.empty())
        return true;
    std::size_t start = 0;
    while (start <= filter.size()) {
        std::size_t comma = filter.find(',', start);
        if (comma == std::string::npos)
            comma = filter.size();
        const std::string token = filter.substr(start, comma - start);
        if (!token.empty() && id.find(token) != std::string::npos)
            return true;
        start = comma + 1;
    }
    return false;
}

RunOutcome
ExperimentEngine::runOne(const RunSpec &spec)
{
    RunOutcome out;
    out.id = spec.id;
    out.suite = spec.suite;
    out.policy = spec.policy.name;
    out.seed = spec.seed;
    out.replica = spec.replica;
    out.effectiveSeed = effectiveSeed(spec.seed, spec.replica);

    const auto t0 = std::chrono::steady_clock::now();
    try {
        if (!spec.make)
            throw std::invalid_argument(
                "RunSpec '" + spec.id + "' has no workload factory");
        std::unique_ptr<Workload> workload = spec.make();
        workload->reseed(out.effectiveSeed);
        out.workload = workload->name();
        out.result = runWorkload(*workload, spec.policy, spec.machine,
                                 spec.os, spec.traceEvents);
        out.ok = true;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    } catch (...) {
        out.ok = false;
        out.error = "unknown exception";
    }
    if (out.workload.empty())
        out.workload = out.ok ? out.result.workload : "?";
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return out;
}

std::vector<RunOutcome>
ExperimentEngine::run(const std::vector<RunSpec> &specs,
                      unsigned jobs) const
{
    std::vector<RunOutcome> outcomes(specs.size());
    // Each call writes only its own outcome slot, so the returned
    // vector is in spec order whatever the completion order.
    parallelFor(specs.size(), jobs, [&](std::size_t i) {
        outcomes[i] = runOne(specs[i]);
    });
    return outcomes;
}

} // namespace vic
