/**
 * @file
 * Static cycle-cost model for abstract policy transitions.
 *
 * Prices the StepTrace an AbstractSimulator step records using the
 * same MachineParams the concrete simulator charges, so static bounds
 * and simulated measurements share one source of truth:
 *
 *  - a page flush/purge visits every line of the page, paying the
 *    720's present/absent cost asymmetry per line (Cache::removeLine).
 *    Under the verifier's single-word discipline at most one line of
 *    the page is present, which the IssuedOp records;
 *  - a flush of a dirty line additionally pays the write-back penalty;
 *  - the instruction cache's uniformOpCost makes every line cost the
 *    present price regardless of contents (Section 5.1);
 *  - each CPU fault pays the kernel trap cost, and each pmap
 *    consistency invocation its software bookkeeping overhead.
 */

#ifndef VIC_VERIFY_COST_MODEL_HH
#define VIC_VERIFY_COST_MODEL_HH

#include "machine/machine_params.hh"
#include "verify/abstract_model.hh"

namespace vic::verify
{

class CostModel
{
  public:
    explicit CostModel(const MachineParams &params = MachineParams::hp720());

    /** Cycles the concrete machine charges for one issued page op. */
    Cycles opCycles(const IssuedOp &op) const;

    /** Kernel entry/exit around one trapped access. */
    Cycles trapCycles() const { return mp.trapCycles; }

    /** Software bookkeeping per pmap consistency invocation. */
    Cycles pmapCycles() const { return mp.pmapOverheadCycles; }

    /** Total cycles of one traced step: ops + traps + pmap calls. */
    Cycles stepCycles(const StepTrace &t) const;

    /** Page-granularity op cost with @p line_present lines of the page
     *  present (exposed for the agreement tests). */
    Cycles dataPageOpCycles(std::uint32_t lines_present) const;
    Cycles instPageOpCycles(std::uint32_t lines_present) const;

    const MachineParams &params() const { return mp; }

  private:
    MachineParams mp;
    std::uint32_t dLinesPerPage;
    std::uint32_t iLinesPerPage;

    static Cycles pageOpCycles(const CacheCosts &costs,
                               std::uint32_t lines_per_page,
                               std::uint32_t lines_present);
};

// ---------------------------------------------------------------------
// Cost census
// ---------------------------------------------------------------------

/** Aggregate static cost annotation of one policy's whole reachable
 *  transition graph. */
struct CostCensus
{
    std::string policyName;
    bool fixedPointReached = false;
    std::uint64_t numStates = 0;
    std::uint64_t numTransitions = 0;

    // issued op instances across all transitions
    std::uint64_t dataFlushes = 0;
    std::uint64_t dataPurges = 0;
    std::uint64_t instPurges = 0;
    std::uint64_t presentOps = 0;  ///< ops on a present line (useful)
    std::uint64_t absentOps = 0;   ///< ops on an absent line (waste)
    std::uint64_t faults = 0;      ///< trapped CPU accesses

    /** Worst single-step consistency cost, and a minimal trace ending
     *  with the event that pays it. */
    Cycles worstStepCycles = 0;
    Trace worstStepTrace;
    /** Worst cumulative cost along any BFS-tree (minimal-trace)
     *  path. */
    Cycles worstPathCycles = 0;

    double seconds = 0.0;
};

/** Explore @p policy's reachable graph and price every transition.
 *  Violations (broken policies) are ignored — the census is a cost
 *  annotation, not a soundness check. */
CostCensus runCostCensus(const PolicyConfig &policy);

} // namespace vic::verify

#endif // VIC_VERIFY_COST_MODEL_HH
