/**
 * @file
 * Schedule-controlled executor: drives one concrete Machine + Pmap
 * one atomic operation at a time.
 *
 * The executor instantiates a fresh scaled-down machine for a
 * scenario, creates one dynamic thread per scenario thread plus one
 * per started DMA transfer (whose steps are the transfer's
 * line-granular beats), and exposes exactly the interface a stateless
 * explorer needs: which threads are enabled, what the next step of
 * each would touch (predicted footprints), and step(t) to execute one
 * operation — including any consistency faults it takes, which are
 * resolved inside the step exactly as the kernel's trap-and-retry
 * path would. A ConsistencyOracle shadows every transfer, so a
 * schedule that loses a write-back or reads stale data is flagged at
 * the step where the stale value crosses the memory system. A thread
 * that releases a frame's busy bit while a slot it unmapped maps the
 * frame again is counted as a violation too: a pager that frees the
 * frame after that would leave a live translation to it.
 *
 * Schedules are replayable: thread indices are assigned
 * deterministically (scenario threads first, then beat threads in
 * transfer start order), so the same schedule on a fresh executor
 * reproduces the same run bit for bit.
 */

#ifndef VIC_MC_EXECUTOR_HH
#define VIC_MC_EXECUTOR_HH

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/pmap.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "mc/scenario.hh"
#include "oracle/consistency_oracle.hh"

namespace vic::mc
{

class Executor
{
  public:
    explicit Executor(const Scenario &scenario);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Dynamic threads so far (scenario threads + beat threads). */
    int numThreads() const { return static_cast<int>(threads.size()); }

    /** Thread indices that can step now, ascending. */
    std::vector<int> enabled();

    /** @return true iff every thread has run to completion. */
    bool allFinished();

    /** Footprint of thread @p t's next step (no effects). step()
     *  records it, and asserts that every line and frame the step
     *  touches lies in it. */
    Footprint peek(int t);

    /** Union footprint of everything thread @p t may still do,
     *  including the beats of transfers it has yet to start. */
    Footprint remainingFootprint(int t);

    /** Execute one step of thread @p t (must be enabled). */
    const StepRecord &step(int t);

    const std::vector<StepRecord> &history() const { return hist; }

    /** Oracle violations plus releases of a frame that a slot the
     *  releasing thread unmapped maps again. */
    std::uint64_t violationCount() const
    { return oracle.violationCount() + releasesWhileMapped; }

    /** History index of the first violating step, or -1. */
    int firstViolationStep() const { return firstViolation; }

    /** What the first violation was: the oracle's kind ("cpu-load",
     *  "cpu-ifetch" or "dma-read") or "release-while-mapped"; empty
     *  if none. */
    const std::string &firstViolationKind() const { return firstKind; }

    /** The machine's simulated clock. */
    Cycles now() { return machine.clock().now(); }

    /**
     * Order-insensitive hash of the observable machine state: memory
     * and cache contents of the scenario frames, page-table state of
     * the scenario slots, busy bits, thread progress and pending
     * transfer residues. Used for the end-state census; the
     * simulated clock is deliberately excluded.
     */
    std::uint64_t stateHash();

  private:
    struct ThreadState
    {
        std::string name;
        bool isBeat = false;
        std::size_t pc = 0;       ///< next op (beats: beats done)
        int scenarioIndex = -1;   ///< static threads: index in scenario
        DmaTicket ticket;         ///< beat threads: the transfer stepped
        std::vector<int> startedBeatThreads;
        std::vector<SpaceVa> unmapped; ///< slots this thread unmapped
        /** Drain threads (WeakStoreOrder): one buffered store. The
         *  single step deposits it into the memory system through the
         *  issuing CPU's cache. */
        bool isDrain = false;
        std::uint32_t sbCpu = 0;
        VirtAddr sbVa{0};
        std::uint32_t sbValue = 0;
        FrameId sbFrame = 0;
        std::uint8_t sbSlot = 0;
        std::uint8_t sbFrameSel = 0;
        int drainsIssued = 0; ///< issuing threads: drains created
    };

    const Scenario &scn;
    Machine machine;
    std::unique_ptr<Pmap> pmap;
    std::vector<std::unique_ptr<Cpu>> cpus;
    ConsistencyOracle oracle;

    /** Forwards transfers to the oracle, checking each against the
     *  current step's footprint. */
    class Recorder;
    std::unique_ptr<Recorder> recorder;

    std::vector<ThreadState> threads;
    /** WeakStoreOrder: per-CPU FIFO of drain-thread indices; entries
     *  before sbHead[cpu] have drained. Empty in SC mode. */
    std::vector<std::vector<int>> sbFifo;
    std::vector<std::size_t> sbHead;
    std::set<FrameId> busyFrames;
    std::deque<std::vector<std::uint32_t>> readBufs;
    std::map<SpaceVa, FrameId> known; ///< demand-mappable slots
    std::vector<StepRecord> hist;
    std::uint32_t stamp = 1;
    int firstViolation = -1;
    std::string firstKind;
    std::uint64_t releasesWhileMapped = 0;

    std::uint32_t colours = 0;
    std::uint32_t lineBytes = 0;
    std::uint32_t lineWords = 0;

    FrameId frameOf(std::uint8_t frame_sel) const;
    VirtAddr slotVa(std::uint8_t slot, std::uint8_t frame_sel) const;

    bool opEnabled(const ThreadState &t);
    bool transfersComplete(const ThreadState &t);
    void predictOp(const Op &op, std::uint32_t cpu, Footprint &fp);
    void execute(int t, StepRecord &cur);
    /** Charge a violation of @p kind to the step now executing. */
    void noteViolation(const std::string &kind);

    bool weakOrder() const
    { return scn.memoryOrder == MemoryOrder::WeakStoreOrder; }
    bool bufferEmpty(std::uint32_t cpu) const;
    /** Any CPU still buffers a store into @p frame? */
    bool bufferedStoreTo(FrameId frame) const;
    /** Newest undrained store of @p cpu into @p frame (store-to-load
     *  forwarding source), or -1. */
    int forwardSource(std::uint32_t cpu, FrameId frame) const;
};

} // namespace vic::mc

#endif // VIC_MC_EXECUTOR_HH
