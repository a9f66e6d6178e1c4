#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "cache/coherence.hh"
#include "common/logging.hh"

namespace vic
{

const char *
mesiStateName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid:
        return "I";
      case MesiState::Shared:
        return "S";
      case MesiState::Exclusive:
        return "E";
      case MesiState::Modified:
        return "M";
    }
    return "?";
}

Cache::Cache(std::string cache_name, const CacheGeometry &geom,
             const CacheCosts &cache_costs, WritePolicy write_policy,
             PhysicalMemory &memory, CycleClock &clock, StatSet &stat_set)
    : cacheName(std::move(cache_name)), geo(geom), costs(cache_costs),
      policy(write_policy), mem(memory), clk(clock), statSet(stat_set),
      stateCol(geo.numLines()), tagCol(geo.numLines()),
      useCol(geo.numLines()), lineState(stateCol.data()),
      lineTag(tagCol.data()), lineUse(useCol.data()),
      data(std::uint64_t(geo.numLines()) * geo.wordsPerLine(), 0),
      copies(memory.sizeBytes() >> geo.lineShift(), 0),
      resident((copies.size() + 63) / 64, 0),
      statReads(stat_set.counter(cacheName + ".reads")),
      statWrites(stat_set.counter(cacheName + ".writes")),
      statHits(stat_set.counter(cacheName + ".hits")),
      statMisses(stat_set.counter(cacheName + ".misses")),
      statWriteBacks(stat_set.counter(cacheName + ".write_backs")),
      statFills(stat_set.counter(cacheName + ".fills")),
      statFlushPresent(stat_set.counter(cacheName + ".flush_present")),
      statFlushAbsent(stat_set.counter(cacheName + ".flush_absent")),
      statPurgePresent(stat_set.counter(cacheName + ".purge_present")),
      statPurgeAbsent(stat_set.counter(cacheName + ".purge_absent")),
      statFlushCycles(stat_set.counter(cacheName + ".flush_cycles")),
      statPurgeCycles(stat_set.counter(cacheName + ".purge_cycles"))
{
    if (geo.spanColours() > UINT8_MAX)
        vic_fatal("%s: %u candidate sets per physical line overflow "
                  "the residency index",
                  cacheName.c_str(), geo.spanColours());
}

void
Cache::enableSelfSnoop(Cycles penalty_cycles)
{
    selfSnoop = true;
    selfSnoopPenalty = penalty_cycles;
    // Registered lazily so machines without synonym coherence keep
    // their exact pre-existing counter set (artifact bit-identity).
    if (statSynonymSnoops == nullptr) {
        statSynonymSnoops =
            &statSet.counter(cacheName + ".synonym_snoops");
        statSynonymSnoopCycles =
            &statSet.counter(cacheName + ".synonym_snoop_cycles");
    }
}

std::uint32_t
Cache::victimWay(std::uint32_t set) const
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
        const std::uint32_t id = lineId(set, w);
        if (!lineValid(id))
            return w;
        if (lineUse[id] < oldest) {
            oldest = lineUse[id];
            victim = w;
        }
    }
    return victim;
}

void
Cache::writeBack(std::uint32_t line_id)
{
    vic_assert(lineDirty(line_id), "write-back of non-dirty line");
    PhysAddr base(lineTag[line_id] << geo.lineShift());
    mem.writeWords(base, lineData(line_id), geo.wordsPerLine());
    lineState[line_id] = MesiState::Exclusive;
    ++statWriteBacks;
    clk.advance(costs.writeBackPenalty);
}

void
Cache::selfSnoopSynonyms(std::uint32_t keep_id, PhysAddr pa_line)
{
    const std::uint64_t tag = lineNumber(pa_line);
    if (copies[tag] == 0)
        return;
    forEachCandidateSet(pa_line, [&](std::uint32_t set) {
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const std::uint32_t id = lineId(set, w);
            if (id == keep_id)
                continue;
            if (!lineValid(id) || lineTag[id] != tag)
                continue;
            if (lineDirty(id))
                writeBack(id);
            lineState[id] = MesiState::Invalid;
            dropCopy(tag);
            ++*statSynonymSnoops;
            *statSynonymSnoopCycles += selfSnoopPenalty;
            clk.advance(selfSnoopPenalty);
        }
    });
}

void
Cache::fill(std::uint32_t line_id, PhysAddr pa, bool for_write)
{
    const PhysAddr base = geo.lineBase(pa);
    // Coherence actions first, so peer (and synonym) write-backs land
    // in memory before this fill reads it.
    bool shared = false;
    if (bus != nullptr) {
        if (for_write)
            bus->busReadExclusive(this, base);
        else
            shared = bus->busRead(this, base);
    }
    if (selfSnoop)
        selfSnoopSynonyms(line_id, base);
    mem.readWords(base, lineData(line_id), geo.wordsPerLine());
    if (lineValid(line_id))
        dropCopy(lineTag[line_id]);
    lineState[line_id] =
        shared ? MesiState::Shared : MesiState::Exclusive;
    lineTag[line_id] = lineNumber(pa);
    addCopy(lineTag[line_id]);
    ++statFills;
    clk.advance(costs.missPenalty);
}

std::uint32_t
Cache::readMiss(std::uint32_t set, PhysAddr pa)
{
    ++statReads;
    clk.advance(costs.hit);
    ++statMisses;
    const std::uint32_t id = lineId(set, victimWay(set));
    if (lineDirty(id))
        writeBack(id);
    fill(id, pa, false);
    lineUse[id] = ++useTick;
    return lineData(id)[wordInLine(pa)];
}

void
Cache::writeSlow(std::uint32_t set, int way, PhysAddr pa,
                 std::uint32_t value)
{
    ++statWrites;
    clk.advance(costs.hit);

    if (policy == WritePolicy::WriteThrough) {
        // No write-allocate: a miss writes straight to memory.
        mem.writeWord(pa, value);
        if (way < 0) {
            ++statMisses;
            return;
        }
        ++statHits;
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        lineUse[id] = ++useTick;
        lineData(id)[wordInLine(pa)] = value;
        return;
    }

    // Write-back, write-allocate.
    std::uint32_t id;
    if (way < 0) {
        ++statMisses;
        id = lineId(set, victimWay(set));
        if (lineDirty(id))
            writeBack(id);
        fill(id, pa, true);
    } else {
        ++statHits;
        id = lineId(set, static_cast<std::uint32_t>(way));
        // A Shared hit must win exclusive ownership before writing.
        if (bus != nullptr && lineState[id] == MesiState::Shared)
            bus->busUpgrade(this, geo.lineBase(pa));
    }
    lineUse[id] = ++useTick;
    lineState[id] = MesiState::Modified;
    lineData(id)[wordInLine(pa)] = value;
}

const std::uint32_t *
Cache::copyRun(VirtAddr dst_va, PhysAddr dst_pa, VirtAddr src_va,
               PhysAddr src_pa, std::uint32_t n)
{
    checkAligned(dst_va, dst_pa);
    checkAligned(src_va, src_pa);
    const std::uint32_t dst_word = wordInLine(dst_pa);
    const std::uint32_t src_word = wordInLine(src_pa);
    vic_assert(std::max(dst_word, src_word) + n < geo.wordsPerLine(),
               "%s: copy run leaves its line", cacheName.c_str());
    if (policy != WritePolicy::WriteBack)
        return nullptr;
    const std::uint32_t dst_set = geo.setIndex(dst_va, dst_pa);
    const int dst_way = findWay(dst_set, dst_pa);
    if (dst_way < 0)
        return nullptr;
    const std::uint32_t dst_id =
        lineId(dst_set, static_cast<std::uint32_t>(dst_way));
    if (!lineDirty(dst_id))
        return nullptr;
    std::uint32_t *dst = lineData(dst_id) + dst_word;
    const std::uint32_t src_set = geo.setIndex(src_va, src_pa);
    const int src_way = findWay(src_set, src_pa);
    const std::uint64_t accesses = 2 * std::uint64_t(n);

    if (src_way >= 0) {
        // Hit run. Word by word, in order, so a source that overlaps
        // the destination in one line reads what earlier pairs wrote.
        const std::uint32_t src_id =
            lineId(src_set, static_cast<std::uint32_t>(src_way));
        const std::uint32_t *src = lineData(src_id) + src_word;
        for (std::uint32_t k = 1; k <= n; ++k)
            dst[k] = src[k];
        statReads += n;
        statWrites += n;
        statHits += accesses;
        clk.advance(accesses * costs.hit);
        useTick += accesses;
        lineUse[src_id] = useTick - 1;
        lineUse[dst_id] = useTick;
        return dst;
    }
    if (geo.associativity() != 1 || src_set != dst_set)
        return nullptr;

    // Conflict run. The pair just before leaves every later pair's
    // coherence actions idle: its store's bus-read-exclusive left no
    // peer copy of the destination, its load left no peer owning the
    // source, and with self-snoop its fills displaced every other copy
    // of both lines here. So the snoops change nothing, and a bus only
    // counts its transactions.
    if (selfSnoop)
        vic_assert(copiesOf(src_pa) == 0 && copiesOf(dst_pa) == 1,
                   "%s: conflict run breaks one copy per line: %u "
                   "copies of the source, %u of the destination",
                   cacheName.c_str(), copiesOf(src_pa), copiesOf(dst_pa));
    if (bus != nullptr)
        bus->quietPairs(this, geo.lineBase(dst_pa), geo.lineBase(src_pa),
                        n);

    // Memory's copy of the source line is constant (the run writes
    // back only the destination line), so every load reads memory;
    // every store refills the destination from the write-back just
    // before it. Memory ends as the line stood before the last store,
    // the cached line with all n words copied. Each pair drops and
    // re-adds both lines, so the residency index ends unchanged.
    mem.readWords(src_pa.plus(4), dst + 1, n - 1);
    mem.writeWords(geo.lineBase(dst_pa), lineData(dst_id),
                   geo.wordsPerLine());
    dst[n] = mem.readWord(src_pa.plus(4 * std::uint64_t(n)));
    statReads += n;
    statWrites += n;
    statMisses += accesses;
    statFills += accesses;
    statWriteBacks += n;
    clk.advance(n * (2 * costs.hit + 2 * costs.missPenalty +
                     costs.writeBackPenalty));
    useTick += accesses;
    lineUse[dst_id] = useTick;
    return dst;
}

void
Cache::chargeLineOps(bool write_back, bool present, std::uint32_t n)
{
    const Cycles cost = n * ((present || costs.uniformOpCost)
                                 ? costs.opLinePresent
                                 : costs.opLineAbsent);
    clk.advance(cost);
    if (write_back) {
        statFlushCycles += cost;
        (present ? statFlushPresent : statFlushAbsent) += n;
    } else {
        statPurgeCycles += cost;
        (present ? statPurgePresent : statPurgeAbsent) += n;
    }
}

bool
Cache::removeLine(VirtAddr va, PhysAddr pa, bool write_back)
{
    const std::uint32_t set = geo.setIndex(va, pa);
    const int way = findWay(set, pa);
    const bool present = way >= 0;
    chargeLineOps(write_back, present, 1);
    if (!present)
        return false;

    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    if (write_back && lineDirty(id))
        writeBack(id);
    lineState[id] = MesiState::Invalid;
    dropCopy(lineTag[id]);
    return true;
}

bool
Cache::flushLine(VirtAddr va, PhysAddr pa)
{
    return removeLine(va, pa, true);
}

bool
Cache::purgeLine(VirtAddr va, PhysAddr pa)
{
    return removeLine(va, pa, false);
}

std::uint32_t
Cache::removePage(VirtAddr page_va, PhysAddr page_pa, bool write_back)
{
    // Probe only the lines with a copy somewhere, in ascending order,
    // so write-backs happen in the order of a per-line loop. Every
    // other line is absent at every colour: charge those in one step.
    // Nothing reads the clock in between, so counters and clock end
    // exactly where a per-line loop leaves them.
    //
    // The page's lines are consecutive mask bits: whole words when a
    // page holds 64 lines or more (the page, and so its first line,
    // is aligned to its size), else a run inside one word.
    vic_assert((page_pa.value & (geo.pageBytes() - 1)) == 0,
               "%s: page op on an unaligned page", cacheName.c_str());
    const std::uint64_t first = lineNumber(page_pa);
    const std::uint32_t lines = geo.linesPerPage();
    const std::uint64_t page_bits =
        lines < 64 ? (std::uint64_t(1) << lines) - 1 : ~std::uint64_t(0);
    std::uint32_t probed = 0;
    std::uint32_t present = 0;
    for (std::uint64_t n = first; n < first + lines; n += 64) {
        // removeLine clears only its own line's bit, so the copy
        // taken here stays the set of lines left to visit.
        std::uint64_t bits = (resident[n >> 6] >> (n & 63)) & page_bits;
        for (; bits != 0; bits &= bits - 1) {
            const std::uint64_t i =
                n - first + static_cast<std::uint64_t>(
                                std::countr_zero(bits));
            const std::uint64_t off = i << geo.lineShift();
            ++probed;
            if (removeLine(page_va.plus(off), page_pa.plus(off),
                           write_back))
                ++present;
        }
    }
    chargeLineOps(write_back, false, lines - probed);
    return present;
}

std::uint32_t
Cache::flushPage(VirtAddr page_va, PhysAddr page_pa)
{
    return removePage(page_va, page_pa, true);
}

std::uint32_t
Cache::purgePage(VirtAddr page_va, PhysAddr page_pa)
{
    return removePage(page_va, page_pa, false);
}

void
Cache::snoopInvalidateLine(PhysAddr pa_line)
{
    const std::uint64_t tag = lineNumber(pa_line);
    if (copies[tag] == 0)
        return;
    forEachCandidateSet(pa_line, [&](std::uint32_t set) {
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const std::uint32_t id = lineId(set, w);
            if (lineValid(id) && lineTag[id] == tag) {
                lineState[id] = MesiState::Invalid;
                dropCopy(tag);
            }
        }
    });
}

bool
Cache::snoopWriteBackLine(PhysAddr pa_line)
{
    const std::uint64_t tag = lineNumber(pa_line);
    if (copies[tag] == 0)
        return false;
    bool wrote = false;
    forEachCandidateSet(pa_line, [&](std::uint32_t set) {
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const std::uint32_t id = lineId(set, w);
            if (lineValid(id) && lineTag[id] == tag &&
                lineDirty(id)) {
                writeBack(id);
                wrote = true;
            }
        }
    });
    return wrote;
}

Cache::SnoopReply
Cache::snoopBusRead(PhysAddr pa_line)
{
    const std::uint64_t tag = lineNumber(pa_line);
    SnoopReply reply;
    if (copies[tag] == 0)
        return reply;
    forEachCandidateSet(pa_line, [&](std::uint32_t set) {
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const std::uint32_t id = lineId(set, w);
            if (!lineValid(id) || lineTag[id] != tag)
                continue;
            reply.hadCopy = true;
            if (lineDirty(id)) {
                writeBack(id);
                reply.intervened = true;
            }
            lineState[id] = MesiState::Shared;
        }
    });
    return reply;
}

Cache::SnoopReply
Cache::snoopBusInvalidate(PhysAddr pa_line)
{
    const std::uint64_t tag = lineNumber(pa_line);
    SnoopReply reply;
    if (copies[tag] == 0)
        return reply;
    forEachCandidateSet(pa_line, [&](std::uint32_t set) {
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const std::uint32_t id = lineId(set, w);
            if (!lineValid(id) || lineTag[id] != tag)
                continue;
            reply.hadCopy = true;
            if (lineDirty(id)) {
                writeBack(id);
                reply.intervened = true;
            }
            lineState[id] = MesiState::Invalid;
            dropCopy(tag);
        }
    });
    return reply;
}

MesiState
Cache::heldState(PhysAddr pa) const
{
    const std::uint64_t tag = lineNumber(pa);
    MesiState held = MesiState::Invalid;
    if (copies[tag] == 0)
        return held;
    forEachCandidateSet(pa, [&](std::uint32_t set) {
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const std::uint32_t id = lineId(set, w);
            if (lineValid(id) && lineTag[id] == tag)
                held = std::max(held, lineState[id]);
        }
    });
    return held;
}

Cache::Probe
Cache::probe(VirtAddr va, PhysAddr pa) const
{
    Probe p;
    const std::uint32_t set = geo.setIndex(va, pa);
    const int way = findWay(set, pa);
    if (way < 0)
        return p;
    const std::uint32_t id = lineId(set, static_cast<std::uint32_t>(way));
    p.present = true;
    p.dirty = lineDirty(id);
    p.state = lineState[id];
    p.word = lineData(id)[wordInLine(pa)];
    return p;
}

} // namespace vic
