/**
 * @file
 * Abstract-to-concrete counterexample replay.
 *
 * Drives a fresh simulated Machine + pmap + CPU with the
 * ConsistencyOracle attached, executing an abstract event trace
 * word-for-word: each alias slot becomes a real virtual page of the
 * matching cache colours, each store writes a unique stamp to the
 * page's word 0, DMA transfers move one word. Because the abstract
 * model's single-word discipline makes it an exact account of the
 * concrete machine's word-0 behaviour, a trace the verifier flags must
 * reproduce an oracle violation here at the same event index — and a
 * trace through a sound policy must replay clean. This closes the
 * abstraction-soundness loop: the verifier's counterexamples are real
 * bugs, not artifacts of the abstraction.
 *
 * Events here are sequential and each DMA transfer completes
 * atomically inline. The schedule-aware counterpart is
 * mc::Executor (src/mc/executor.hh): it replays *interleaved*
 * schedules — CPU accesses, pmap ops, busy-bit transitions and
 * individual DMA beats as separate atomic steps — under the same
 * oracle, which is how the model checker's minimal counterexample
 * schedules are validated.
 */

#ifndef VIC_VERIFY_TRACE_REPLAY_HH
#define VIC_VERIFY_TRACE_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy_config.hh"
#include "machine/machine_params.hh"
#include "verify/abstract_model.hh"

namespace vic::verify
{

struct ReplayResult
{
    bool violated = false;
    std::uint64_t violationCount = 0;
    /** Index into the trace of the event whose transfer first
     *  mismatched the oracle's shadow copy; -1 if none. */
    int firstViolationEvent = -1;
    /** Oracle classification of the first violation ("cpu-load",
     *  "cpu-ifetch" or "dma-read"). */
    std::string kind;
    /** Simulated cycles each event of the trace took, in order: the
     *  concrete side of CostModel::stepCycles. */
    std::vector<Cycles> eventCycles;
};

class TraceReplayer
{
  public:
    /** Replay on a machine of @p params, with only the memory a trace
     *  can touch: frames up to the one under analysis. */
    explicit TraceReplayer(const PolicyConfig &policy,
                           MachineParams params = MachineParams::hp720());

    /** Execute @p trace on a fresh machine under the oracle. */
    ReplayResult replay(const Trace &trace) const;

  private:
    PolicyConfig cfg;
    SlotPlan slotPlan = SlotPlan::standard();
    MachineParams mparams;
};

} // namespace vic::verify

#endif // VIC_VERIFY_TRACE_REPLAY_HH
