#include "verify/cost_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "verify/reachability.hh"

namespace vic::verify
{

CostModel::CostModel(const MachineParams &params)
    : mp(params),
      dLinesPerPage(params.dcacheGeometry().linesPerPage()),
      iLinesPerPage(params.icacheGeometry().linesPerPage())
{
    mp.check();
}

Cycles
CostModel::pageOpCycles(const CacheCosts &costs,
                        std::uint32_t lines_per_page,
                        std::uint32_t lines_present)
{
    vic_assert(lines_present <= lines_per_page,
               "more lines present than the page holds");
    if (costs.uniformOpCost)
        return Cycles(lines_per_page) * costs.opLinePresent;
    return Cycles(lines_present) * costs.opLinePresent +
        Cycles(lines_per_page - lines_present) * costs.opLineAbsent;
}

Cycles
CostModel::dataPageOpCycles(std::uint32_t lines_present) const
{
    return pageOpCycles(mp.dcacheCosts, dLinesPerPage, lines_present);
}

Cycles
CostModel::instPageOpCycles(std::uint32_t lines_present) const
{
    return pageOpCycles(mp.icacheCosts, iLinesPerPage, lines_present);
}

Cycles
CostModel::opCycles(const IssuedOp &op) const
{
    // Single-word discipline: at most one line of the page is present.
    const std::uint32_t present = op.present ? 1 : 0;
    Cycles c = op.cache == CacheKind::Instruction
        ? instPageOpCycles(present)
        : dataPageOpCycles(present);
    if (op.op == RequiredOp::Flush && op.dirty)
        c += mp.dcacheCosts.writeBackPenalty;
    return c;
}

Cycles
CostModel::stepCycles(const StepTrace &t) const
{
    Cycles c = Cycles(t.traps) * mp.trapCycles +
        Cycles(t.pmapCalls) * mp.pmapOverheadCycles;
    for (const IssuedOp &op : t.ops)
        c += opCycles(op);
    return c;
}

namespace
{

/** A census search state: the model state, and the cost of the
 *  BFS-tree path that first reached it (not part of its identity). */
struct CostedState
{
    ModelState model;
    Cycles pathCycles = 0;

    ModelState::Key pack() const { return model.pack(); }
};

} // namespace

CostCensus
runCostCensus(const PolicyConfig &policy)
{
    const auto t0 = std::chrono::steady_clock::now();

    const AbstractSimulator sim(policy);
    const CostModel costs;

    CostCensus res;
    res.policyName = policy.name;

    Reachability<CostedState> search(CostedState{sim.initial()});
    search.run(sim.alphabet(), [&](std::size_t from, const Event &e,
                                   CostedState &next) {
        StepTrace tr;
        // Violations are ignored: the census prices transitions even
        // for a broken policy.
        (void)sim.stepTraced(next.model, e, tr);

        res.faults += tr.traps;
        for (const IssuedOp &op : tr.ops) {
            if (op.cache == CacheKind::Instruction)
                ++res.instPurges;
            else if (op.op == RequiredOp::Flush)
                ++res.dataFlushes;
            else
                ++res.dataPurges;
            (op.present ? res.presentOps : res.absentOps) += 1;
        }

        const Cycles step = costs.stepCycles(tr);
        next.pathCycles += step;
        if (step > res.worstStepCycles) {
            res.worstStepCycles = step;
            res.worstStepTrace = search.trace(from, e);
        }
        return false;
    });

    res.fixedPointReached = !search.truncated();
    res.numStates = search.size();
    res.numTransitions = search.transitions();
    for (std::size_t i = 0; i < search.size(); ++i)
        res.worstPathCycles =
            std::max(res.worstPathCycles, search.state(i).pathCycles);
    res.seconds = secondsSince(t0);
    return res;
}

} // namespace vic::verify
