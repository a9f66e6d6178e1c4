#include "mc/executor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vic::mc
{

/** MemoryObserver sandwich: checks that every physical line the
 *  current step touches lies in the footprint peek() predicted for it,
 *  then forwards the transfer to the oracle. DPOR prunes on predicted
 *  footprints, which is sound only if they contain what steps do. */
class Executor::Recorder : public MemoryObserver
{
  public:
    Recorder(ConsistencyOracle &golden, std::uint32_t line_bytes,
             std::uint32_t page_bytes)
        : oracle(golden), lineBytes(line_bytes), pageBytes(page_bytes)
    {
    }

    void begin(StepRecord *step) { cur = step; }
    void end() { cur = nullptr; }

    void
    cpuLoad(PhysAddr pa, std::uint32_t observed) override
    {
        check(pa, false);
        oracle.cpuLoad(pa, observed);
    }

    void
    cpuIFetch(PhysAddr pa, std::uint32_t observed) override
    {
        check(pa, false);
        oracle.cpuIFetch(pa, observed);
    }

    void
    cpuStore(PhysAddr pa, std::uint32_t value) override
    {
        check(pa, true);
        oracle.cpuStore(pa, value);
    }

    void
    dmaWrite(PhysAddr pa, std::uint32_t value) override
    {
        check(pa, true);
        oracle.dmaWrite(pa, value);
    }

    void
    dmaRead(PhysAddr pa, std::uint32_t observed) override
    {
        check(pa, false);
        oracle.dmaRead(pa, observed);
    }

  private:
    ConsistencyOracle &oracle;
    std::uint32_t lineBytes;
    std::uint32_t pageBytes;
    StepRecord *cur = nullptr;

    static bool
    holds(const std::vector<std::uint64_t> &set, std::uint64_t v)
    {
        return std::binary_search(set.begin(), set.end(), v);
    }

    /** A write must be predicted as one; a read may lie in either
     *  line set, since a predicted write conflicts with every access. */
    void
    check(PhysAddr pa, bool write)
    {
        if (cur == nullptr)
            return;
        const Footprint &fp = cur->fp;
        const std::uint64_t line = pa.value / lineBytes;
        vic_assert((holds(fp.writeLines, line) ||
                    (!write && holds(fp.readLines, line))) &&
                       holds(fp.frames, pa.value / pageBytes),
                   "%s %s pa %#llx outside its predicted footprint",
                   cur->label.c_str(), write ? "wrote" : "read",
                   static_cast<unsigned long long>(pa.value));
    }
};

namespace
{

/** Frames the catalog plays with: 7 is the page under test, 9 the
 *  bystander every scenario's second frame maps to. */
constexpr FrameId kFrameUnderTest = 7;
constexpr FrameId kBystanderFrame = 9;

bool
isCpuOp(OpKind k)
{
    return k == OpKind::CpuLoad || k == OpKind::CpuStore ||
           k == OpKind::CpuIFetch;
}

} // namespace

Executor::Executor(const Scenario &scenario)
    : scn(scenario), machine(scenario.mparams),
      oracle(scenario.mparams.numFrames * scenario.mparams.pageBytes)
{
    pmap = Pmap::create(machine, scn.policy);
    colours = machine.dcache().geometry().numColours();
    lineBytes = scn.mparams.dcacheLineBytes;
    lineWords = lineBytes / 4;
    sbFifo.resize(machine.numCpus());
    sbHead.assign(machine.numCpus(), 0);

    recorder = std::make_unique<Recorder>(oracle, lineBytes,
                                          scn.mparams.pageBytes);
    machine.setObserver(recorder.get());
    oracle.setViolationHook([this](const ConsistencyOracle::Violation &v) {
        noteViolation(v.kind);
    });

    for (std::uint32_t i = 0; i < machine.numCpus(); ++i) {
        cpus.push_back(std::make_unique<Cpu>(machine, i));
        cpus.back()->setSpace(1);
        cpus.back()->setFaultHandler([this](const Fault &f) {
            if (pmap->resolveConsistencyFault(f.address, f.access))
                return true;
            // Demand mapping: re-enter a slot's removed translation
            // with the faulting access and default hints, as
            // Kernel::resolveMappingFault does.
            auto it = known.find(f.address);
            if (f.type == FaultType::Unmapped && it != known.end()) {
                pmap->enter(f.address, it->second, Protection::all(),
                            f.access, {});
                return true;
            }
            return false;
        });
    }

    for (std::size_t i = 0; i < scn.threads.size(); ++i) {
        ThreadState t;
        t.name = scn.threads[i].name;
        t.scenarioIndex = static_cast<int>(i);
        threads.push_back(std::move(t));
        const Thread &st = scn.threads[i];
        vic_assert(st.cpu < machine.numCpus(),
                   "scenario thread on missing cpu %u", st.cpu);
    }
}

void
Executor::noteViolation(const std::string &kind)
{
    if (firstViolation >= 0)
        return;
    firstViolation = static_cast<int>(hist.size());
    firstKind = kind;
}

Executor::~Executor()
{
    // Explorers discard executors partway through a schedule; a
    // transfer still in flight dies with the machine, its beats unrun.
    for (ThreadState &t : threads)
        if (t.isBeat)
            machine.dma().abandon(std::move(t.ticket));
    machine.setObserver(nullptr);
    oracle.setViolationHook(nullptr);
}

FrameId
Executor::frameOf(std::uint8_t frame_sel) const
{
    return frame_sel == 0 ? kFrameUnderTest : kBystanderFrame;
}

VirtAddr
Executor::slotVa(std::uint8_t slot, std::uint8_t frame_sel) const
{
    const Slot &s = scn.slots[slot];
    // Fold colour, alias replica and frame choice into distinct
    // virtual pages; +1 keeps page zero unused, and the bystander
    // offset of 2*colours pages preserves the slot's cache colour.
    const std::uint64_t page =
        std::uint64_t(s.replica) * colours + 1 + s.colour +
        (frame_sel != 0 ? 2ull * colours : 0ull);
    return VirtAddr(page * scn.mparams.pageBytes);
}

bool
Executor::bufferEmpty(std::uint32_t cpu) const
{
    return sbHead[cpu] == sbFifo[cpu].size();
}

bool
Executor::bufferedStoreTo(FrameId frame) const
{
    for (std::size_t c = 0; c < sbFifo.size(); ++c)
        for (std::size_t i = sbHead[c]; i < sbFifo[c].size(); ++i)
            if (threads[static_cast<std::size_t>(sbFifo[c][i])]
                    .sbFrame == frame)
                return true;
    return false;
}

int
Executor::forwardSource(std::uint32_t cpu, FrameId frame) const
{
    for (std::size_t i = sbFifo[cpu].size(); i > sbHead[cpu]; --i) {
        const int idx = sbFifo[cpu][i - 1];
        if (threads[static_cast<std::size_t>(idx)].sbFrame == frame)
            return idx;
    }
    return -1;
}

bool
Executor::transfersComplete(const ThreadState &t)
{
    for (int b : t.startedBeatThreads)
        if (machine.dma().transferPending(
                threads[static_cast<std::size_t>(b)].ticket))
            return false;
    return true;
}

bool
Executor::opEnabled(const ThreadState &t)
{
    const Thread &st = scn.threads[static_cast<std::size_t>(
        t.scenarioIndex)];
    const Op &op = st.ops[t.pc];
    if (isCpuOp(op.kind))
        return busyFrames.count(frameOf(op.frameSel)) == 0;
    if (op.kind == OpKind::DmaWait)
        return transfersComplete(t);
    if (op.kind == OpKind::BusyAcquire)
        // Weak order: acquiring the busy bit is an acquire point that
        // forces every CPU's buffered stores to the frame to drain
        // first — the kernel's guard is only sound if the stores it
        // fences off are actually in memory-visible order.
        return busyFrames.count(frameOf(op.frameSel)) == 0 &&
               !bufferedStoreTo(frameOf(op.frameSel));
    if (op.kind == OpKind::PmapUnmap)
        // The unmap's TLB shootdown drains every CPU's buffered stores
        // to the frame, as the busy bit's acquire does: a store cannot
        // drain through a translation that is already gone.
        return !bufferedStoreTo(frameOf(op.frameSel));
    if (op.kind == OpKind::Fence)
        return bufferEmpty(st.cpu);
    return true;
}

std::vector<int>
Executor::enabled()
{
    std::vector<int> out;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const ThreadState &t = threads[i];
        if (t.isBeat) {
            if (machine.dma().transferPending(t.ticket))
                out.push_back(static_cast<int>(i));
            continue;
        }
        if (t.isDrain) {
            // FIFO: only the oldest undrained store of a CPU's buffer
            // may leave it.
            if (t.pc == 0 && sbHead[t.sbCpu] < sbFifo[t.sbCpu].size() &&
                sbFifo[t.sbCpu][sbHead[t.sbCpu]] == static_cast<int>(i))
                out.push_back(static_cast<int>(i));
            continue;
        }
        const Thread &st = scn.threads[static_cast<std::size_t>(
            t.scenarioIndex)];
        if (t.pc < st.ops.size() && opEnabled(t))
            out.push_back(static_cast<int>(i));
    }
    return out;
}

bool
Executor::allFinished()
{
    for (const ThreadState &t : threads) {
        if (t.isBeat) {
            if (machine.dma().transferPending(t.ticket))
                return false;
            continue;
        }
        if (t.isDrain) {
            if (t.pc == 0)
                return false;
            continue;
        }
        const Thread &st = scn.threads[static_cast<std::size_t>(
            t.scenarioIndex)];
        if (t.pc < st.ops.size())
            return false;
    }
    return true;
}

void
Executor::predictOp(const Op &op, std::uint32_t cpu, Footprint &fp)
{
    const FrameId frame = frameOf(op.frameSel);
    const std::uint64_t frame_line =
        frame * (scn.mparams.pageBytes / lineBytes);
    const std::uint32_t page_lines = scn.mparams.pageBytes / lineBytes;

    switch (op.kind) {
      case OpKind::CpuLoad:
      case OpKind::CpuStore:
      case OpKind::CpuIFetch: {
        fp.cpuData = true;
        fp.cpu = cpu;
        fp.inst = op.kind == OpKind::CpuIFetch;
        const VirtAddr va = slotVa(op.slot, op.frameSel);
        fp.colour = fp.inst ? machine.icache().geometry().colourOf(va)
                            : machine.dcache().geometry().colourOf(va);
        Footprint::addFrame(fp.frames, frame);
        if (op.kind == OpKind::CpuStore)
            Footprint::addLine(fp.writeLines, frame_line);
        else
            Footprint::addLine(fp.readLines, frame_line);
        break;
      }
      case OpKind::PmapDmaRead:
      case OpKind::PmapDmaWrite:
      case OpKind::PmapUnmap:
        fp.pmapOp = true;
        fp.unmap = op.kind == OpKind::PmapUnmap;
        Footprint::addFrame(fp.frames, frame);
        for (std::uint32_t i = 0; i < page_lines; ++i)
            Footprint::addLine(fp.writeLines, frame_line + i);
        break;
      case OpKind::BusyAcquire:
        fp.busyAcquire = true;
        Footprint::addFrame(fp.frames, frame);
        break;
      case OpKind::BusyRelease:
        fp.busyRelease = true;
        Footprint::addFrame(fp.frames, frame);
        break;
      case OpKind::DmaStartRead:
      case OpKind::DmaStartWrite:
        // The command itself latches device state without touching
        // memory; the beats carry the transfer's data footprint.
        Footprint::addFrame(fp.frames, frame);
        break;
      case OpKind::Fence:
        fp.sbOp = true;
        fp.sbCpu = cpu;
        break;
      case OpKind::DmaWait:
      case OpKind::DmaBeat:
      case OpKind::StoreDrain:
        break;
    }
    if (weakOrder() && isCpuOp(op.kind)) {
        fp.sbOp = true;
        fp.sbCpu = cpu;
        fp.storeIssue = op.kind == OpKind::CpuStore;
    }
}

Footprint
Executor::peek(int t)
{
    const ThreadState &ts = threads[static_cast<std::size_t>(t)];
    Footprint fp;
    if (ts.isBeat) {
        DmaEngine &dma = machine.dma();
        for (std::size_t i = 0; i < dma.pendingTransfers(); ++i) {
            auto beat = dma.nextBeat(i);
            if (!beat || beat->id != ts.ticket.id())
                continue;
            fp.dmaAccess = true;
            Footprint::addFrame(fp.frames,
                                beat->pa.value / scn.mparams.pageBytes);
            for (std::uint32_t w = 0; w < beat->nwords; ++w) {
                const std::uint64_t line =
                    (beat->pa.value + std::uint64_t(w) * 4) / lineBytes;
                if (beat->deviceWrites)
                    Footprint::addLine(fp.writeLines, line);
                else
                    Footprint::addLine(fp.readLines, line);
            }
            break;
        }
        return fp;
    }
    if (ts.isDrain) {
        if (ts.pc != 0)
            return fp;
        fp.cpuData = true;
        fp.cpu = ts.sbCpu;
        fp.colour = machine.dcache().geometry().colourOf(ts.sbVa);
        fp.sbOp = true;
        fp.sbCpu = ts.sbCpu;
        Footprint::addFrame(fp.frames, ts.sbFrame);
        Footprint::addLine(fp.writeLines,
                           machine.frameAddr(ts.sbFrame).value / lineBytes);
        return fp;
    }
    const Thread &st = scn.threads[static_cast<std::size_t>(
        ts.scenarioIndex)];
    if (ts.pc < st.ops.size()) {
        const Op &op = st.ops[ts.pc];
        predictOp(op, st.cpu, fp);
        if (weakOrder() && op.kind == OpKind::CpuStore) {
            // The issue step only enqueues: no line becomes visible
            // until the drain, which carries the write footprint.
            fp.writeLines.clear();
        } else if (weakOrder() && op.kind == OpKind::CpuLoad &&
                   forwardSource(st.cpu, frameOf(op.frameSel)) >= 0) {
            // Store-to-load forwarding bypasses the memory system.
            fp.readLines.clear();
        }
    }
    return fp;
}

Footprint
Executor::remainingFootprint(int t)
{
    const ThreadState &ts = threads[static_cast<std::size_t>(t)];
    Footprint fp;
    const std::uint32_t page_lines = scn.mparams.pageBytes / lineBytes;

    if (ts.isBeat) {
        // Conservative: the rest of the transfer may touch any line
        // of its frame.
        if (!machine.dma().transferPending(ts.ticket))
            return fp;
        Footprint beat = peek(t);
        fp = beat;
        if (!fp.frames.empty()) {
            const std::uint64_t frame_line = fp.frames[0] * page_lines;
            for (std::uint32_t i = 0; i < page_lines; ++i) {
                Footprint::addLine(fp.readLines, frame_line + i);
                Footprint::addLine(fp.writeLines, frame_line + i);
            }
        }
        return fp;
    }

    if (ts.isDrain)
        return ts.pc == 0 ? peek(t) : fp;

    const Thread &st = scn.threads[static_cast<std::size_t>(
        ts.scenarioIndex)];
    for (std::size_t pc = ts.pc; pc < st.ops.size(); ++pc) {
        const Op &op = st.ops[pc];
        Footprint one;
        predictOp(op, st.cpu, one);
        if (op.kind == OpKind::DmaStartRead ||
            op.kind == OpKind::DmaStartWrite) {
            // Account for the beats the start will spawn.
            one.dmaAccess = true;
            const std::uint64_t frame_line =
                frameOf(op.frameSel) * page_lines;
            for (std::uint32_t i = 0; i < op.lines; ++i) {
                if (op.kind == OpKind::DmaStartWrite)
                    Footprint::addLine(one.writeLines, frame_line + i);
                else
                    Footprint::addLine(one.readLines, frame_line + i);
            }
        }
        for (std::uint64_t l : one.readLines)
            Footprint::addLine(fp.readLines, l);
        for (std::uint64_t l : one.writeLines)
            Footprint::addLine(fp.writeLines, l);
        for (std::uint64_t f : one.frames)
            Footprint::addFrame(fp.frames, f);
        fp.cpuData |= one.cpuData;
        fp.cpu = one.cpuData ? one.cpu : fp.cpu;
        fp.inst |= one.inst;
        fp.colour = one.cpuData ? one.colour : fp.colour;
        fp.dmaAccess |= one.dmaAccess;
        fp.pmapOp |= one.pmapOp;
        fp.unmap |= one.unmap;
        fp.busyAcquire |= one.busyAcquire;
        fp.busyRelease |= one.busyRelease;
        fp.sbOp |= one.sbOp;
        fp.storeIssue |= one.storeIssue;
        fp.sbCpu = one.sbOp ? one.sbCpu : fp.sbCpu;
    }
    return fp;
}

void
Executor::execute(int t, StepRecord &cur)
{
    ThreadState &ts = threads[static_cast<std::size_t>(t)];

    if (ts.isBeat) {
        cur.kind = OpKind::DmaBeat;
        const bool stepped = machine.dma().stepTransfer(ts.ticket);
        vic_assert(stepped, "beat thread stepped without pending beat");
        ++ts.pc;
        return;
    }

    if (ts.isDrain) {
        // The buffered store leaves the FIFO and enters the memory
        // system through the issuing CPU's cache; the oracle's shadow
        // already holds the value from issue time, so re-recording it
        // here is idempotent and settles it into coherence order.
        cur.kind = OpKind::StoreDrain;
        vic_assert(sbHead[ts.sbCpu] < sbFifo[ts.sbCpu].size() &&
                       sbFifo[ts.sbCpu][sbHead[ts.sbCpu]] == t,
                   "drain out of FIFO order");
        Cpu &cpu = *cpus[ts.sbCpu];
        const std::uint64_t faults_before = cpu.faultCount();
        cpu.access(AccessType::Store, ts.sbVa, ts.sbValue);
        cur.faulted = cpu.faultCount() != faults_before;
        ++sbHead[ts.sbCpu];
        ++ts.pc;
        return;
    }

    const Thread &st = scn.threads[static_cast<std::size_t>(
        ts.scenarioIndex)];
    const Op &op = st.ops[ts.pc];
    cur.kind = op.kind;
    const FrameId frame = frameOf(op.frameSel);

    switch (op.kind) {
      case OpKind::CpuLoad:
      case OpKind::CpuStore:
      case OpKind::CpuIFetch: {
        const VirtAddr va = slotVa(op.slot, op.frameSel);
        const SpaceVa sva(1, va);
        known[sva] = frame;
        Cpu &cpu = *cpus[st.cpu];

        if (weakOrder() && op.kind == OpKind::CpuStore) {
            // Issue: the store retires into the CPU's FIFO store
            // buffer. Program order (and the oracle's shadow, which
            // defines "newest value in program order") advances now;
            // memory visibility waits for the drain step.
            const std::uint32_t value = stamp++;
            oracle.cpuStore(machine.frameAddr(frame), value);

            ThreadState drain;
            drain.name = ts.name + ".sb" +
                         std::to_string(++ts.drainsIssued);
            drain.isDrain = true;
            drain.sbCpu = st.cpu;
            drain.sbVa = va;
            drain.sbValue = value;
            drain.sbFrame = frame;
            drain.sbSlot = op.slot;
            drain.sbFrameSel = op.frameSel;
            cur.startedBeat = static_cast<int>(threads.size());
            sbFifo[st.cpu].push_back(cur.startedBeat);
            threads.push_back(std::move(drain));
            break;
        }

        if (weakOrder() && op.kind == OpKind::CpuLoad) {
            const int src = forwardSource(st.cpu, frame);
            if (src >= 0) {
                // Store-to-load forwarding: the CPU observes its own
                // buffered store without touching the memory system.
                const std::uint32_t observed =
                    threads[static_cast<std::size_t>(src)].sbValue;
                oracle.cpuLoad(machine.frameAddr(frame), observed);
                break;
            }
        }

        const std::uint64_t faults_before = cpu.faultCount();
        if (op.kind == OpKind::CpuLoad)
            cpu.access(AccessType::Load, va, 0);
        else if (op.kind == OpKind::CpuStore)
            cpu.access(AccessType::Store, va, stamp++);
        else
            cpu.access(AccessType::IFetch, va, 0);
        cur.faulted = cpu.faultCount() != faults_before;
        break;
      }

      case OpKind::PmapDmaRead:
        pmap->dmaRead(frame, /*need_data=*/true);
        break;

      case OpKind::PmapDmaWrite:
        pmap->dmaWrite(frame);
        break;

      case OpKind::PmapUnmap: {
        const SpaceVa sva(1, slotVa(op.slot, op.frameSel));
        known.erase(sva);
        pmap->remove(sva);
        ts.unmapped.push_back(sva);
        break;
      }

      case OpKind::BusyAcquire:
        vic_assert(busyFrames.count(frame) == 0,
                   "busy frame acquired twice");
        busyFrames.insert(frame);
        break;

      case OpKind::BusyRelease:
        vic_assert(busyFrames.count(frame) == 1,
                   "release of non-busy frame");
        busyFrames.erase(frame);
        // The frame leaves its pager's hands: a slot the pager unmapped
        // must not map it again, or freeing the frame would leave a
        // live translation to it (an access between an unguarded unmap
        // and the guard maps it back on demand).
        for (const SpaceVa &sva : ts.unmapped) {
            const PageTableEntry *pte = machine.pageTable().lookup(sva);
            if (pte != nullptr && pte->frame == frame) {
                ++releasesWhileMapped;
                noteViolation("release-while-mapped");
                break;
            }
        }
        break;

      case OpKind::DmaStartRead:
      case OpKind::DmaStartWrite: {
        const std::uint32_t nwords = op.lines * lineWords;
        // The beat thread spawned here owns the transfer's ticket and
        // steps its beats; the scheduler's DmaWait events gate every
        // interleaving on its completion.
        ThreadState beat;
        if (op.kind == OpKind::DmaStartRead) {
            readBufs.emplace_back(nwords, 0u);
            beat.ticket = machine.dma().startRead(
                machine.frameAddr(frame), readBufs.back().data(), nwords);
        } else {
            std::vector<std::uint32_t> words(nwords);
            for (std::uint32_t i = 0; i < nwords; ++i)
                words[i] = 0x80000000u +
                           (std::uint32_t(stamp) << 8) + i;
            ++stamp;
            beat.ticket = machine.dma().startWrite(
                machine.frameAddr(frame), words.data(), nwords);
        }
        beat.name = ts.name + ".dma" +
                    std::to_string(ts.startedBeatThreads.size() + 1);
        beat.isBeat = true;
        cur.startedBeat = static_cast<int>(threads.size());
        ts.startedBeatThreads.push_back(cur.startedBeat);
        threads.push_back(std::move(beat));
        break;
      }

      case OpKind::DmaWait:
        vic_assert(transfersComplete(ts), "wait on pending transfer");
        cur.joins = ts.startedBeatThreads;
        break;

      case OpKind::Fence:
        // Enabledness already guaranteed the CPU's buffer is empty;
        // the step itself is a pure ordering marker.
        vic_assert(bufferEmpty(st.cpu), "fence with non-empty buffer");
        break;

      case OpKind::DmaBeat:
      case OpKind::StoreDrain:
        vic_assert(false, "dynamic-thread op in a scenario thread");
        break;
    }
    ++threads[static_cast<std::size_t>(t)].pc;
}

const StepRecord &
Executor::step(int t)
{
    ThreadState &ts = threads[static_cast<std::size_t>(t)];

    StepRecord cur;
    cur.thread = t;
    cur.pc = ts.pc;
    cur.fp = peek(t);
    if (ts.isBeat) {
        cur.label = ts.name + ":beat#" + std::to_string(ts.pc);
    } else if (ts.isDrain) {
        cur.label = ts.name + ":sb-drain ";
        cur.label += static_cast<char>('A' + ts.sbSlot);
        if (ts.sbFrameSel != 0)
            cur.label += '*';
    } else {
        const Thread &st = scn.threads[static_cast<std::size_t>(
            ts.scenarioIndex)];
        const Op &op = st.ops[ts.pc];
        cur.label = ts.name + ":" + opKindName(op.kind);
        if (isCpuOp(op.kind) || op.kind == OpKind::PmapUnmap) {
            cur.label += ' ';
            cur.label += static_cast<char>('A' + op.slot);
            if (op.frameSel != 0)
                cur.label += '*';
        }
    }

    recorder->begin(&cur);
    execute(t, cur);
    recorder->end();

    hist.push_back(std::move(cur));
    return hist.back();
}

std::uint64_t
Executor::stateHash()
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };

    const std::uint32_t page_words = scn.mparams.pageBytes / 4;
    for (FrameId frame : {kFrameUnderTest, kBystanderFrame}) {
        const PhysAddr base = machine.frameAddr(frame);
        for (std::uint32_t w = 0; w < page_words; ++w)
            mix(machine.memory().readWord(
                base.plus(std::uint64_t(w) * 4)));
    }

    for (std::uint32_t c = 0; c < machine.numCpus(); ++c) {
        for (std::size_t s = 0; s < scn.slots.size(); ++s) {
            for (std::uint8_t sel = 0; sel < 2; ++sel) {
                const VirtAddr va =
                    slotVa(static_cast<std::uint8_t>(s), sel);
                const PhysAddr pa = machine.frameAddr(frameOf(sel));
                // The MESI state subsumes present/dirty (Invalid,
                // Modified) and additionally splits Shared from
                // Exclusive; off the bus only I/E/M occur, so the
                // encoding stays injective with the old valid|dirty
                // pair and uniprocessor state counts are unchanged.
                const Cache::Probe d = machine.dcache(c).probe(va, pa);
                mix(static_cast<std::uint64_t>(d.state));
                mix(d.word);
                const Cache::Probe i = machine.icache(c).probe(va, pa);
                mix(static_cast<std::uint64_t>(i.state));
                mix(i.word);
            }
        }
    }

    for (std::size_t s = 0; s < scn.slots.size(); ++s) {
        for (std::uint8_t sel = 0; sel < 2; ++sel) {
            const SpaceVa sva(
                1, slotVa(static_cast<std::uint8_t>(s), sel));
            const PageTableEntry *pte =
                machine.pageTable().lookup(sva);
            if (pte == nullptr) {
                mix(~std::uint64_t(0));
                continue;
            }
            mix(pte->frame);
            mix((pte->prot.read ? 1u : 0u) |
                (pte->prot.write ? 2u : 0u) |
                (pte->prot.execute ? 4u : 0u) |
                (pte->modified ? 8u : 0u));
        }
    }

    for (FrameId f : busyFrames)
        mix(f);
    for (const ThreadState &t : threads) {
        mix(t.pc);
        mix(t.startedBeatThreads.size());
    }
    // Undrained store-buffer entries, FIFO order (no-op in SC mode).
    for (std::size_t c = 0; c < sbFifo.size(); ++c) {
        for (std::size_t i = sbHead[c]; i < sbFifo[c].size(); ++i) {
            const ThreadState &d =
                threads[static_cast<std::size_t>(sbFifo[c][i])];
            mix(d.sbVa.value);
            mix(d.sbValue);
            mix(d.sbFrame);
        }
    }
    DmaEngine &dma = machine.dma();
    for (std::size_t i = 0; i < dma.pendingTransfers(); ++i) {
        auto beat = dma.nextBeat(i);
        if (!beat)
            continue;
        mix(beat->pa.value);
        mix(beat->nwords);
        mix(beat->deviceWrites ? 1u : 0u);
    }
    mix(stamp);
    return h;
}

} // namespace vic::mc
