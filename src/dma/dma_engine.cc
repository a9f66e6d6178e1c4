#include "dma/dma_engine.hh"

#include <utility>

#include "common/logging.hh"

namespace vic
{

DmaTicket::DmaTicket(DmaTicket &&other) noexcept
    : engine(std::exchange(other.engine, nullptr)),
      transfer(other.transfer), uncaughtAtStart(other.uncaughtAtStart)
{
}

DmaTicket &
DmaTicket::operator=(DmaTicket &&other) noexcept
{
    if (this != &other) {
        release();
        engine = std::exchange(other.engine, nullptr);
        transfer = other.transfer;
        uncaughtAtStart = other.uncaughtAtStart;
    }
    return *this;
}

DmaTicket::~DmaTicket()
{
    release();
}

void
DmaTicket::release()
{
    if (engine == nullptr)
        return;
    // While an exception thrown since the transfer started unwinds
    // through this ticket, asserting would abort the process before
    // the exception reaches its handler.
    const std::size_t i = engine->indexOf(*this);
    vic_assert(i == engine->queue.size() ||
                   std::uncaught_exceptions() > uncaughtAtStart,
               "DMA transfer %llu (%s pa=%#llx, %u of %u words moved) "
               "dropped with beats pending: drain it",
               (unsigned long long)transfer,
               engine->queue[i].deviceWrites ? "dma-wr" : "dma-rd",
               (unsigned long long)engine->queue[i].pa.value,
               engine->queue[i].done, engine->queue[i].nwords);
    engine = nullptr;
}

DmaEngine::DmaEngine(const DmaCosts &dma_costs, PhysicalMemory &memory,
                     CycleClock &clock, StatSet &stat_set)
    : costs(dma_costs), mem(memory), clk(clock),
      statWrites(stat_set.counter("dma.device_writes")),
      statReads(stat_set.counter("dma.device_reads")),
      statWordsMoved(stat_set.counter("dma.words_moved"))
{
}

void
DmaEngine::attachSnoopedCache(Cache *cache)
{
    vic_assert(cache != nullptr, "null snooped cache");
    snooped.push_back(cache);
}

void
DmaEngine::setBeatBytes(std::uint32_t bytes)
{
    vic_assert(bytes >= 4 && bytes % 4 == 0,
               "beat size %u not a word multiple", bytes);
    beatSize = bytes;
}

DmaTicket
DmaEngine::start(bool device_writes, PhysAddr pa,
                 const std::uint32_t *words, std::uint32_t *out,
                 std::uint32_t nwords,
                 std::function<void()> on_complete)
{
    vic_assert(pa.value % 4 == 0, "unaligned DMA transfer");

    // Per-transfer accounting happens at command time, exactly where
    // the historic atomic implementation charged it, so a start plus
    // an immediate drain costs what one atomic transfer did.
    if (device_writes)
        ++statWrites;
    else
        ++statReads;
    statWordsMoved += nwords;
    clk.advance(costs.setup);
    if (evlog) {
        VIC_EVLOG(*evlog,
                  format("dma-%s pa=%llx words=%u%s",
                         device_writes ? "wr" : "rd",
                         (unsigned long long)pa.value, nwords,
                         snooped.empty() ? "" : " (snooped)"));
    }

    const DmaTransferId id = nextId++;
    if (nwords == 0) {
        // Degenerate command: completes at setup time, nothing queued.
        if (on_complete)
            on_complete();
        return DmaTicket(this, id);
    }

    Transfer t;
    t.id = id;
    t.deviceWrites = device_writes;
    t.pa = pa;
    t.nwords = nwords;
    t.onComplete = std::move(on_complete);
    if (device_writes)
        t.buf.assign(words, words + nwords);
    else
        t.out = out;
    queue.push_back(std::move(t));
    return DmaTicket(this, id);
}

DmaTicket
DmaEngine::startWrite(PhysAddr pa, const std::uint32_t *words,
                      std::uint32_t nwords,
                      std::function<void()> on_complete)
{
    return start(true, pa, words, nullptr, nwords,
                 std::move(on_complete));
}

DmaTicket
DmaEngine::startRead(PhysAddr pa, std::uint32_t *out,
                     std::uint32_t nwords,
                     std::function<void()> on_complete)
{
    return start(false, pa, nullptr, out, nwords,
                 std::move(on_complete));
}

std::size_t
DmaEngine::indexOf(const DmaTicket &ticket) const
{
    if (ticket.engine == this)
        for (std::size_t i = 0; i < queue.size(); ++i)
            if (queue[i].id == ticket.transfer)
                return i;
    return queue.size();
}

bool
DmaEngine::transferPending(const DmaTicket &ticket) const
{
    return indexOf(ticket) < queue.size();
}

std::uint32_t
DmaEngine::beatWords(const Transfer &t) const
{
    const std::uint64_t next_word_addr =
        t.pa.value + std::uint64_t(t.done) * 4;
    const std::uint64_t line_end =
        (next_word_addr / beatSize + 1) * beatSize;
    const std::uint32_t to_boundary =
        static_cast<std::uint32_t>((line_end - next_word_addr) / 4);
    const std::uint32_t remaining = t.nwords - t.done;
    return remaining < to_boundary ? remaining : to_boundary;
}

std::optional<DmaEngine::BeatInfo>
DmaEngine::nextBeat(std::size_t queue_index) const
{
    if (queue_index >= queue.size())
        return std::nullopt;
    const Transfer &t = queue[queue_index];
    BeatInfo b;
    b.id = t.id;
    b.pa = t.pa.plus(std::uint64_t(t.done) * 4);
    b.nwords = beatWords(t);
    b.deviceWrites = t.deviceWrites;
    return b;
}

void
DmaEngine::executeBeat(std::size_t index)
{
    Transfer &t = queue[index];
    const std::uint32_t words = beatWords(t);
    clk.advance(costs.perWord * words);

    // Coherent DMA: a beat is atomic, so each snooped cache is snooped
    // once per line of its own that the beat covers, before any word
    // moves. A DMA-write kills cached copies so later CPU reads miss
    // and fetch the new data; a DMA-read pulls dirty data out first.
    const PhysAddr first = t.pa.plus(std::uint64_t(t.done) * 4);
    const PhysAddr end = first.plus(std::uint64_t(words) * 4);
    for (Cache *c : snooped) {
        const CacheGeometry &g = c->geometry();
        for (PhysAddr line = g.lineBase(first); line < end;
             line = line.plus(g.lineBytes())) {
            if (t.deviceWrites)
                c->snoopInvalidateLine(line);
            else
                c->snoopWriteBackLine(line);
        }
    }

    for (std::uint32_t i = 0; i < words; ++i) {
        const PhysAddr addr =
            t.pa.plus(std::uint64_t(t.done + i) * 4);
        if (t.deviceWrites) {
            mem.writeWord(addr, t.buf[t.done + i]);
            if (observer)
                observer->dmaWrite(addr, t.buf[t.done + i]);
        } else {
            t.out[t.done + i] = mem.readWord(addr);
            if (observer)
                observer->dmaRead(addr, t.out[t.done + i]);
        }
    }
    t.done += words;

    if (t.done == t.nwords) {
        // Retire before the callback so completion handlers observe a
        // consistent queue (and may start fresh transfers).
        std::function<void()> done = std::move(t.onComplete);
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(index));
        if (done)
            done();
    }
}

bool
DmaEngine::stepTransfer(const DmaTicket &ticket)
{
    const std::size_t i = indexOf(ticket);
    if (i == queue.size())
        return false;
    executeBeat(i);
    return true;
}

void
DmaEngine::drain(DmaTicket &&ticket)
{
    while (stepTransfer(ticket)) {
    }
    ticket.release();
}

void
DmaEngine::abandon(DmaTicket &&ticket)
{
    const std::size_t i = indexOf(ticket);
    if (i < queue.size())
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
    ticket.release();
}

void
DmaEngine::deviceWrite(PhysAddr pa, const std::uint32_t *words,
                       std::uint32_t nwords)
{
    drain(startWrite(pa, words, nwords));
}

void
DmaEngine::deviceRead(PhysAddr pa, std::uint32_t *out,
                      std::uint32_t nwords)
{
    drain(startRead(pa, out, nwords));
}

} // namespace vic
