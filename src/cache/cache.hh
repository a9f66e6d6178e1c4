/**
 * @file
 * Functional and cycle-timed cache simulator.
 *
 * Models the HP 9000 Series 700 cache organisation of the paper:
 * virtually indexed, physically tagged, write-back, direct mapped —
 * plus the alternative organisations of Section 3.3 (physically
 * indexed, write-through, set associative) behind the same interface.
 *
 * The simulator stores real data. Because the index comes from the
 * virtual address while the tag comes from the physical address, a
 * physical line mapped at two unaligned virtual addresses occupies two
 * cache lines with independent data — so stale reads, shadowed DMA
 * input and lost write-backs genuinely occur when consistency is
 * mismanaged. The two cache control operations the hardware exports,
 * flush and purge by virtual address, are modelled with the 720's
 * measured cost asymmetry (an operation on a line that is present is
 * several times more expensive than on an absent one, Section 2.3).
 *
 * Each line carries a MESI coherence state. On a uniprocessor the
 * states degenerate to the classic valid/dirty pair (fill -> Exclusive,
 * store -> Modified) and nothing else changes. When the cache is
 * attached to a CoherenceBus (multi-CPU machines, coherence.hh), fills
 * become bus transactions that snoop the peer caches, stores to Shared
 * lines upgrade ownership, and the bus calls back into the snoop
 * methods to downgrade or invalidate this cache's copy.
 *
 * Host cost follows what an operation touches. A residency index
 * counts the cache's valid copies of every physical line, with a
 * bitmask of the nonzero counts beside it: a physical snoop of an
 * absent line returns at once, and a page flush or purge visits only
 * the resident lines (set mask bits, taken a word at a time) and
 * charges every absent line in one step. tests/cache_index_test.cc
 * checks both against a full probe and the page ops against per-line
 * loops.
 */

#ifndef VIC_CACHE_CACHE_HH
#define VIC_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_geometry.hh"
#include "common/cycle_clock.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/physical_memory.hh"

namespace vic
{

class CoherenceBus;

/** Write policy of the cache (Section 3.3 distinguishes the two by the
 *  existence of the dirty state). */
enum class WritePolicy : std::uint8_t
{
    WriteBack,
    WriteThrough,
};

/** Per-line MESI coherence state. Invalid/Exclusive/Modified map onto
 *  the uniprocessor (valid, dirty) pair; Shared only arises when a
 *  CoherenceBus observes another cache holding the line. */
enum class MesiState : std::uint8_t
{
    Invalid = 0,
    Shared = 1,
    Exclusive = 2,
    Modified = 3,
};

/** Printable name ("I"/"S"/"E"/"M") for traces and tests. */
const char *mesiStateName(MesiState s);

/** Per-operation cycle costs. Defaults approximate the 50 MHz 720 as
 *  characterised in the paper. */
struct CacheCosts
{
    Cycles hit = 1;             ///< load/store hit
    Cycles missPenalty = 15;    ///< line fill from memory
    Cycles writeBackPenalty = 15; ///< dirty victim write-back

    /** Flush/purge of a line that is present: slow (memory traffic /
     *  pipeline drain). The paper: "a purge or flush of a virtual
     *  address can be up to seven times slower when the data is in the
     *  cache as opposed to when it isn't". */
    Cycles opLinePresent = 14;
    /** Flush/purge of an absent line: fast. */
    Cycles opLineAbsent = 2;
    /** If true, line flush/purge costs opLinePresent regardless of
     *  presence — the 720's instruction cache "requires constant time
     *  to purge ... regardless of its contents" (Section 5.1). */
    bool uniformOpCost = false;
};

class Cache
{
  public:
    /**
     * @param cache_name prefix for statistics (e.g. "dcache")
     * @param geom       geometry (size, line, page, ways, indexing)
     * @param cache_costs cycle cost table
     * @param write_policy write-back or write-through
     * @param memory     backing physical memory
     * @param clock      cycle clock charged by every operation
     * @param stat_set   statistics registry
     */
    Cache(std::string cache_name, const CacheGeometry &geom,
          const CacheCosts &cache_costs, WritePolicy write_policy,
          PhysicalMemory &memory, CycleClock &clock, StatSet &stat_set);

    const CacheGeometry &geometry() const { return geo; }
    WritePolicy writePolicy() const { return policy; }
    const std::string &name() const { return cacheName; }

    /**
     * Attach this cache to a snooping coherence bus. Every fill then
     * issues a bus-read (or bus-read-exclusive for stores) and stores
     * to Shared lines issue a bus-upgrade; the bus snoops the peers
     * through snoopBusRead()/snoopBusInvalidate(). A cache with no bus
     * behaves exactly as the uniprocessor cache always has.
     */
    void attachBus(CoherenceBus *b) { bus = b; }

    /** @return the attached coherence bus, or nullptr. */
    CoherenceBus *coherenceBus() const { return bus; }

    /**
     * Enable reverse-lookup synonym coherence (arXiv 2108.00444): at
     * fill time the cache snoops its *own* other candidate sets for a
     * copy of the same physical line under a different colour, writes
     * it back if modified and invalidates it, so at most one copy of
     * any physical line ever lives in the cache. @p penalty_cycles is
     * charged per displaced synonym; counters
     * <name>.synonym_snoops/.synonym_snoop_cycles are registered
     * lazily so uncoherent machines' artifacts are unchanged.
     */
    void enableSelfSnoop(Cycles penalty_cycles);

    /** CPU load of the aligned word at (@p va -> @p pa). A hit
     *  completes inline; a miss continues out of line from the same
     *  probe. */
    std::uint32_t
    read(VirtAddr va, PhysAddr pa)
    {
        checkAligned(va, pa);
        const std::uint32_t set = geo.setIndex(va, pa);
        const int way = findWay(set, pa);
        if (way < 0) [[unlikely]]
            return readMiss(set, pa);
        ++statReads;
        ++statHits;
        clk.advance(costs.hit);
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        lineUse[id] = ++useTick;
        return lineData(id)[wordInLine(pa)];
    }

    /** CPU store of the aligned word at (@p va -> @p pa). A write-back
     *  hit on a line this cache owns completes inline; a miss, a
     *  write-through store or a Shared line (which must broadcast an
     *  upgrade first) continues out of line from the same probe. */
    void
    write(VirtAddr va, PhysAddr pa, std::uint32_t value)
    {
        checkAligned(va, pa);
        const std::uint32_t set = geo.setIndex(va, pa);
        const int way = findWay(set, pa);
        if (way < 0 || policy != WritePolicy::WriteBack ||
            lineState[lineId(set, static_cast<std::uint32_t>(way))] ==
                MesiState::Shared) [[unlikely]] {
            writeSlow(set, way, pa, value);
            return;
        }
        ++statWrites;
        ++statHits;
        clk.advance(costs.hit);
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        lineUse[id] = ++useTick;
        lineState[id] = MesiState::Modified;
        lineData(id)[wordInLine(pa)] = value;
    }

    /**
     * Line run of loads: charge @p n more loads from the line holding
     * (@p va -> @p pa), which the access just before left present —
     * n reads, n hits, n hit cycles and one LRU touch, exactly what n
     * read() hits on the line add. The caller reads the words.
     * @return the line's words, valid until the next operation on
     * this cache.
     */
    const std::uint32_t *
    readRun(VirtAddr va, PhysAddr pa, std::uint32_t n)
    {
        const std::uint32_t id = runLine(va, pa, n);
        statReads += n;
        return lineData(id);
    }

    /**
     * Line run of stores on a write-back cache: as readRun(), for a
     * line the store just before left Modified; the caller writes the
     * @p n words into the returned line.
     */
    std::uint32_t *
    writeRun(VirtAddr va, PhysAddr pa, std::uint32_t n)
    {
        const std::uint32_t id = runLine(va, pa, n);
        vic_assert(policy == WritePolicy::WriteBack && lineDirty(id),
                   "%s: store run on a line that is not Modified",
                   cacheName.c_str());
        statWrites += n;
        return lineData(id);
    }

    /**
     * Copy run: charge @p n more (load, store) pairs, pair k loading
     * the word k words past (@p src_va -> @p src_pa) and storing it k
     * words past (@p dst_va -> @p dst_pa), all inside the two lines —
     * exactly what n read()/write() pairs add, in one of two closed
     * forms, from the state the pair just before left:
     *  - hit run: the destination line is Modified and the source line
     *    present, so every access hits silently (any organisation, any
     *    bus);
     *  - conflict run: direct mapped, both lines in one set, which
     *    holds the destination Modified. Every access misses: each
     *    load writes the destination back and fills the source, each
     *    store fills the destination. On a bus every pair adds one
     *    bus-read and one bus-read-exclusive that find the peers quiet
     *    (CoherenceBus::quietPairs() asserts it); with synonym
     *    self-snoop neither line may have another copy in this cache
     *    (asserted too). The pair just before leaves both true.
     * @return the destination words from the pair just before's on:
     * element k holds the value pair k copied (valid until the next
     * operation on this cache). nullptr, with nothing charged, if
     * neither form applies or the cache is write-through.
     */
    const std::uint32_t *copyRun(VirtAddr dst_va, PhysAddr dst_pa,
                                 VirtAddr src_va, PhysAddr src_pa,
                                 std::uint32_t n);

    /**
     * Hardware "flush virtual address": remove the line containing
     * @p va from the cache, writing it back first if dirty. The line is
     * located by indexing with @p va and comparing the physical tag
     * against @p pa, as on PA-RISC.
     *
     * @return true iff a matching line was present.
     */
    bool flushLine(VirtAddr va, PhysAddr pa);

    /** Hardware "purge virtual address": remove without write-back.
     *  @return true iff a matching line was present. */
    bool purgeLine(VirtAddr va, PhysAddr pa);

    /** Flush every line of the page mapped at (@p page_va -> @p page_pa).
     *  @return number of lines that were present. */
    std::uint32_t flushPage(VirtAddr page_va, PhysAddr page_pa);

    /** Purge every line of the page at (@p page_va -> @p page_pa).
     *  @return number of lines that were present. */
    std::uint32_t purgePage(VirtAddr page_va, PhysAddr page_pa);

    /**
     * Coherent-DMA support (Section 3.3, "DMA can access the cache"):
     * invalidate every line whose tag covers @p pa_line, regardless of
     * which set it sits in. Used by a snooping DmaEngine on DMA-write.
     */
    void snoopInvalidateLine(PhysAddr pa_line);

    /**
     * Coherent-DMA support: if any line holding @p pa_line is dirty,
     * write it back so memory is current. Used by a snooping DmaEngine
     * on DMA-read. @return true iff a write-back occurred.
     */
    bool snoopWriteBackLine(PhysAddr pa_line);

    /** Outcome of a bus snoop against this cache. */
    struct SnoopReply
    {
        bool hadCopy = false;   ///< a valid copy of the line was found
        bool intervened = false; ///< a Modified copy was written back
    };

    /**
     * Bus snoop for a peer's read: a Modified copy is written back
     * (memory becomes current) and any copy downgrades to Shared.
     */
    SnoopReply snoopBusRead(PhysAddr pa_line);

    /**
     * Bus snoop for a peer's write (bus-read-exclusive / upgrade): a
     * Modified copy is written back first, then every copy is
     * invalidated.
     */
    SnoopReply snoopBusInvalidate(PhysAddr pa_line);

    /** Result of a non-intrusive lookup, for tests and the oracle. */
    struct Probe
    {
        bool present = false; ///< valid line with matching tag at va's set
        bool dirty = false;
        MesiState state = MesiState::Invalid; ///< coherence state
        std::uint32_t word = 0; ///< cached value of the probed word
    };

    /** Inspect the cache without charging cycles or changing state. */
    Probe probe(VirtAddr va, PhysAddr pa) const;

    /** Number of valid lines, under any colour, that hold the physical
     *  line containing @p pa (the residency index; never charges). */
    std::uint32_t copiesOf(PhysAddr pa) const
    { return copies[lineNumber(pa)]; }

    /** The strongest MESI state of any copy, under any colour, of the
     *  physical line containing @p pa; Invalid if none (never
     *  charges). */
    MesiState heldState(PhysAddr pa) const;

    /** The residency mask's bit for the physical line containing
     *  @p pa: set iff copiesOf(pa) != 0 (never charges; for tests). */
    bool residentBit(PhysAddr pa) const
    {
        const std::uint64_t n = lineNumber(pa);
        return (resident[n >> 6] >> (n & 63)) & 1;
    }

  private:
    std::string cacheName;
    CacheGeometry geo;
    CacheCosts costs;
    WritePolicy policy;
    PhysicalMemory &mem;
    CycleClock &clk;
    StatSet &statSet;
    CoherenceBus *bus = nullptr;

    /**
     * Per-line metadata in structure-of-arrays layout: one column each
     * for the MESI state, the physical tag (pa / lineBytes) and the
     * LRU use tick. The tag probe touches only the state and tag
     * columns, so a whole set's candidates land in one or two host
     * cache lines and the branchless compare in findWay() vectorises;
     * the LRU tick — written on every hit but read only by victim
     * selection — stays out of the probe's way. The columns never
     * resize, so their raw pointers are resolved once.
     */
    std::vector<MesiState> stateCol;
    std::vector<std::uint64_t> tagCol;
    std::vector<std::uint64_t> useCol;
    MesiState *lineState = nullptr;
    std::uint64_t *lineTag = nullptr;
    std::uint64_t *lineUse = nullptr;

    std::vector<std::uint32_t> data;
    std::uint64_t useTick = 0;

    /**
     * Residency index, the host-side form of the reverse-lookup table
     * in arXiv 2108.00444: copies[n] is the number of valid lines
     * whose tag is physical line n, for every line of the backing
     * memory. It changes exactly where a line turns valid or invalid
     * (fill, removeLine, the synonym and invalidating snoops), so a
     * zero count proves the line absent at every colour: physical
     * snoops return without probing, and page flush/purge probe only
     * the lines that have a copy somewhere. A line is held at most
     * once per candidate set, so a count never exceeds spanColours().
     */
    std::vector<std::uint8_t> copies;

    /** The residency mask: bit n (word n / 64, bit n % 64) is set iff
     *  copies[n] != 0. A page's lines are consecutive bits, so a page
     *  flush/purge takes them a word at a time and visits only the set
     *  bits. copies and resident change only in addCopy/dropCopy. */
    std::vector<std::uint64_t> resident;

    bool selfSnoop = false;
    Cycles selfSnoopPenalty = 0;

    Counter &statReads;
    Counter &statWrites;
    Counter &statHits;
    Counter &statMisses;
    Counter &statWriteBacks;
    Counter &statFills;
    Counter &statFlushPresent;
    Counter &statFlushAbsent;
    Counter &statPurgePresent;
    Counter &statPurgeAbsent;
    Counter &statFlushCycles; ///< cycles spent in flush operations
    Counter &statPurgeCycles; ///< cycles spent in purge operations
    Counter *statSynonymSnoops = nullptr;      ///< by enableSelfSnoop
    Counter *statSynonymSnoopCycles = nullptr; ///< by enableSelfSnoop

    std::uint32_t lineId(std::uint32_t set, std::uint32_t way) const
    { return set * geo.associativity() + way; }
    /** Physical line number of @p pa: the tag and the index key. */
    std::uint64_t lineNumber(PhysAddr pa) const
    { return pa.value >> geo.lineShift(); }
    std::uint32_t wordInLine(PhysAddr pa) const
    {
        return static_cast<std::uint32_t>(pa.value >> 2) &
               (geo.wordsPerLine() - 1);
    }
    std::uint32_t *lineData(std::uint32_t line_id)
    { return data.data() + std::uint64_t(line_id) * geo.wordsPerLine(); }
    const std::uint32_t *lineData(std::uint32_t line_id) const
    { return data.data() + std::uint64_t(line_id) * geo.wordsPerLine(); }

    bool lineValid(std::uint32_t id) const
    { return lineState[id] != MesiState::Invalid; }
    bool lineDirty(std::uint32_t id) const
    { return lineState[id] == MesiState::Modified; }

    /**
     * Find a valid way in @p set whose tag covers @p pa.
     * @return way index or -1.
     *
     * Branchless probe over the set's way-vector: every way's
     * (valid, tag-equal) conjunction is computed with data-dependent
     * arithmetic only, and since at most one way can match (fills
     * only happen after a failed probe) OR-ing way+1 under the match
     * mask yields the unique hit with no early-exit branch for the
     * predictor to miss.
     */
    int
    findWay(std::uint32_t set, PhysAddr pa) const
    {
        const std::uint64_t tag = lineNumber(pa);
        const std::uint32_t ways = geo.associativity();
        const std::uint32_t base = set * ways;
        std::uint32_t hit = 0;
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::uint32_t id = base + w;
            const bool match =
                (lineState[id] != MesiState::Invalid) &
                (lineTag[id] == tag);
            hit |= match * (w + 1);
        }
        return static_cast<int>(hit) - 1;
    }

    void
    checkAligned(VirtAddr va, PhysAddr pa) const
    {
        vic_assert(((va.value | pa.value) & 3) == 0,
                   "unaligned cache access");
    }

    /** The hit accounting shared by readRun() and writeRun(). */
    std::uint32_t
    runLine(VirtAddr va, PhysAddr pa, std::uint32_t n)
    {
        const std::uint32_t set = geo.setIndex(va, pa);
        const int way = findWay(set, pa);
        vic_assert(way >= 0, "%s: line run on an absent line",
                   cacheName.c_str());
        statHits += n;
        clk.advance(n * costs.hit);
        useTick += n;
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        lineUse[id] = useTick;
        return id;
    }

    /** read() after a failed probe of @p set: fill, then load. */
    std::uint32_t readMiss(std::uint32_t set, PhysAddr pa);

    /** write() after the probe of @p set found @p way (-1: absent),
     *  for every case the inline hit does not complete. */
    void writeSlow(std::uint32_t set, int way, PhysAddr pa,
                   std::uint32_t value);

    /** Choose a victim way in @p set (invalid first, else LRU). */
    std::uint32_t victimWay(std::uint32_t set) const;

    /** Write line @p line_id back to memory (Modified -> Exclusive). */
    void writeBack(std::uint32_t line_id);

    /**
     * Fill line @p line_id from memory for @p pa's line. On a bus this
     * is a bus-read (@p for_write false: fills Shared or Exclusive by
     * the peers' reply) or a bus-read-exclusive (@p for_write true:
     * peers invalidate, fills Exclusive); with synonym coherence the
     * cache's other candidate sets are self-snooped first.
     */
    void fill(std::uint32_t line_id, PhysAddr pa, bool for_write);

    /** Displace any other copy of @p pa_line held under a different
     *  colour (reverse-lookup synonym snoop); @p keep_id is the line
     *  being filled. */
    void selfSnoopSynonyms(std::uint32_t keep_id, PhysAddr pa_line);

    /** Count one more valid copy of physical line @p n. */
    void
    addCopy(std::uint64_t n)
    {
        ++copies[n];
        resident[n >> 6] |= std::uint64_t(1) << (n & 63);
    }

    /** Count one valid copy of physical line @p n fewer. */
    void
    dropCopy(std::uint64_t n)
    {
        if (--copies[n] == 0)
            resident[n >> 6] &= ~(std::uint64_t(1) << (n & 63));
    }

    /** Shared flush/purge implementation. */
    bool removeLine(VirtAddr va, PhysAddr pa, bool write_back);

    /** Shared flushPage/purgePage implementation. */
    std::uint32_t removePage(VirtAddr page_va, PhysAddr page_pa,
                             bool write_back);

    /** Charge @p n flush (@p write_back) or purge operations on lines
     *  that were @p present: cycles plus the matching counters. */
    void chargeLineOps(bool write_back, bool present, std::uint32_t n);

    /**
     * Visit every set that could hold the line at physical address
     * @p pa_line. A virtual index shares the page-offset bits with
     * the physical address, so only the colour bits are unknown —
     * one candidate set per span colour instead of a full scan.
     */
    template <typename Fn>
    void
    forEachCandidateSet(PhysAddr pa_line, Fn &&fn) const
    {
        const std::uint32_t lines_per_page = geo.linesPerPage();
        const std::uint32_t off_line = static_cast<std::uint32_t>(
            (pa_line.value & (geo.pageBytes() - 1)) >> geo.lineShift());
        const std::uint32_t span = geo.spanColours();
        for (std::uint32_t c = 0; c < span; ++c) {
            const std::uint32_t set =
                (c * lines_per_page + off_line) & (geo.numSets() - 1);
            fn(set);
        }
    }
};

} // namespace vic

#endif // VIC_CACHE_CACHE_HH
