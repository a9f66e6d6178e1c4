/**
 * @file
 * CPU range and copy calls against per-word loops, in lockstep.
 *
 * loadRange, storeRange and ifetchRange are defined as loops of load,
 * store and ifetch, but they charge the words after the first of each
 * cache line as one run of TLB and cache hits; copyRange is defined as
 * a loop of store(dst + 4k, load(src + 4k)), but charges the pairs
 * after the first of each line pair as one hit run or conflict run.
 * Seeded streams drive two fresh twin machines, one through the range
 * and copy calls and one through the loops, on each machine
 * organisation the suites use. Ranges start at any word, cross lines
 * and pages, take strides of 4, 8 and 16 bytes, one line and two, and
 * meet unmapped and read-only pages on the way, which the fault
 * handler maps or upgrades. Copies start at any word on either side,
 * run from one word to three pages, and put their two sides at one
 * colour about half the time (so a direct-mapped cache conflicts), on
 * aliasing frames, or on one page. Between ops the stream unmaps pages
 * (shooting them down first) and downgrades them, and on the
 * multiprocessors the peer CPU loads and stores, so lines sit Shared
 * or Modified in its cache; most of its accesses land on the next
 * copy's source, so conflict runs on a bus meet a peer's Shared copy.
 * After every op the observer's (kind, pa, value) sequence, the
 * stats, the clock, the fault counts, the TLBs' contents, a probe of
 * every touched word (on the ifetch-coherent machine a copy's also in
 * the I-caches, which its bus transactions snoop), physical memory
 * over every touched line and the data caches' residency index there
 * must agree. Every touched line must also keep the invariants the
 * conflict run rests on: on a bus, a port holding it Exclusive or
 * Modified is its only holder; with synonym self-snoop, no cache
 * holds it twice.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"

namespace vic
{
namespace
{

constexpr std::uint64_t kSeed = 0x2a46e;
constexpr int kSteps = 800;
constexpr SpaceId kSpace = 1;
/** The virtual window the ops touch: colour 0 under every cache here,
 *  and 52 pages, so pages 16, 32 and 48 apart share a colour of a
 *  64 KB direct-mapped cache's 16. */
constexpr std::uint64_t kWindow = 0x100000;
constexpr std::uint64_t kWindowPages = 52;

/** The frame behind window page @p page: 24 frames, so pages 24 apart
 *  alias at another colour and pages 48 apart at the same one. */
FrameId
frameFor(std::uint64_t page)
{
    return 8 + page % 24;
}

/** One CPU transfer as the observer saw it. */
struct Transfer
{
    char kind; ///< 'L' load, 'I' instruction fetch, 'S' store
    std::uint64_t pa;
    std::uint32_t value;

    bool operator==(const Transfer &) const = default;
};

struct Recorder : MemoryObserver
{
    void cpuLoad(PhysAddr pa, std::uint32_t v) override
    { seen.push_back({'L', pa.value, v}); }
    void cpuIFetch(PhysAddr pa, std::uint32_t v) override
    { seen.push_back({'I', pa.value, v}); }
    void cpuStore(PhysAddr pa, std::uint32_t v) override
    { seen.push_back({'S', pa.value, v}); }

    std::vector<Transfer> seen;
};

/** A machine whose CPUs all run in one space, with a handler that maps
 *  an unmapped page (read-only for a load) and upgrades a protection
 *  fault to every permission. */
struct Twin
{
    explicit Twin(const MachineParams &params) : machine(params)
    {
        machine.setObserver(&recorder);
        for (std::uint32_t c = 0; c < params.numCpus; ++c) {
            cpus.push_back(std::make_unique<Cpu>(machine, c));
            cpus.back()->setSpace(kSpace);
            cpus.back()->setFaultHandler(
                [this](const Fault &f) { return repair(f); });
        }
        // Every fifth page starts unmapped, every fourth read-only.
        for (std::uint64_t p = 0; p < kWindowPages; ++p) {
            if (p % 5 == 4)
                continue;
            machine.pageTable().enter(
                SpaceVa(kSpace, VirtAddr(kWindow + p * params.pageBytes)),
                frameFor(p),
                p % 4 == 3 ? Protection::readOnly() : Protection::all());
        }
    }

    Twin(const Twin &) = delete;
    Twin &operator=(const Twin &) = delete;

    bool
    repair(const Fault &f)
    {
        PageTable &pt = machine.pageTable();
        const SpaceVa page(f.address.space, pt.pageBase(f.address.va));
        if (f.type == FaultType::Unmapped)
            pt.enter(page,
                     frameFor((page.va.value - kWindow) /
                              machine.pageBytes()),
                     f.access == AccessType::Load ? Protection::readOnly()
                                                  : Protection::all());
        else
            pt.setProtection(page, Protection::all());
        return true;
    }

    Machine machine;
    Recorder recorder;
    std::vector<std::unique_ptr<Cpu>> cpus;
};

/** @p count words from @p base, @p stride bytes apart: what an op
 *  touched. */
struct Extent
{
    VirtAddr base;
    std::uint32_t count;
    std::uint32_t stride;
};

/** The physical address behind @p va, which the op just before left
 *  mapped. */
PhysAddr
physOf(Machine &m, VirtAddr va)
{
    const PageTableEntry *pte = m.pageTable().lookup(SpaceVa(kSpace, va));
    vic_assert(pte != nullptr, "touched va %llx is unmapped",
               (unsigned long long)va.value);
    return PhysAddr(pte->frame * m.pageBytes() + va.value % m.pageBytes());
}

/** After an op that touched @p touched through the @p kinds caches:
 *  both twins agree on everything a per-word loop could have
 *  changed. */
void
expectSame(Twin &a, Twin &b, const std::vector<CacheKind> &kinds,
           const std::vector<Extent> &touched)
{
    ASSERT_EQ(a.recorder.seen, b.recorder.seen);
    a.recorder.seen.clear();
    b.recorder.seen.clear();
    ASSERT_EQ(a.machine.clock().now(), b.machine.clock().now());
    ASSERT_EQ(a.machine.stats().snapshot(), b.machine.stats().snapshot());

    const std::uint32_t page_bytes = a.machine.pageBytes();
    for (std::uint32_t c = 0; c < a.cpus.size(); ++c) {
        ASSERT_EQ(a.cpus[c]->faultCount(), b.cpus[c]->faultCount());
        Tlb &ta = a.machine.tlb(c);
        Tlb &tb = b.machine.tlb(c);
        ASSERT_EQ(ta.validCount(), tb.validCount());
        for (std::uint64_t p = 0; p < kWindowPages; ++p) {
            const SpaceVa page(kSpace, VirtAddr(kWindow + p * page_bytes));
            ASSERT_EQ(ta.holds(page), tb.holds(page)) << "page " << p;
        }
    }

    const CacheGeometry &dgeo = a.machine.dcache().geometry();
    for (const Extent &e : touched) {
        PhysAddr last_line(1); // no line starts at an odd address
        for (std::uint32_t i = 0; i < e.count; ++i) {
            const VirtAddr va = e.base.plus(std::uint64_t(i) * e.stride);
            const PhysAddr pa = physOf(a.machine, va);
            for (std::uint32_t c = 0; c < a.cpus.size(); ++c) {
                for (CacheKind kind : kinds) {
                    const Cache::Probe pa_probe =
                        a.machine.cacheFor(kind, c).probe(va, pa);
                    const Cache::Probe pb_probe =
                        b.machine.cacheFor(kind, c).probe(va, pa);
                    ASSERT_EQ(pa_probe.present, pb_probe.present)
                        << "word " << i;
                    ASSERT_EQ(pa_probe.state, pb_probe.state)
                        << "word " << i;
                    ASSERT_EQ(pa_probe.word, pb_probe.word)
                        << "word " << i;
                }
            }

            // A write-back shows in memory, not in a probe of the
            // cached line: compare each touched data line once.
            const PhysAddr line = dgeo.lineBase(pa);
            if (line == last_line)
                continue;
            last_line = line;
            for (std::uint32_t off = 0; off < dgeo.lineBytes(); off += 4) {
                ASSERT_EQ(a.machine.memory().readWord(line.plus(off)),
                          b.machine.memory().readWord(line.plus(off)))
                    << "memory at " << line.plus(off).value;
            }
            for (std::uint32_t c = 0; c < a.cpus.size(); ++c) {
                ASSERT_EQ(a.machine.dcache(c).copiesOf(line),
                          b.machine.dcache(c).copiesOf(line))
                    << "line " << line.value;
                ASSERT_EQ(a.machine.dcache(c).residentBit(line),
                          b.machine.dcache(c).residentBit(line))
                    << "line " << line.value;
            }
        }
    }
}

/** The caches on @p m's coherence bus: every data cache, and the
 *  instruction caches too under ifetch coherence. None without a bus. */
std::vector<const Cache *>
busPorts(Machine &m)
{
    std::vector<const Cache *> ports;
    if (m.coherenceBus() == nullptr)
        return ports;
    for (std::uint32_t c = 0; c < m.numCpus(); ++c) {
        ports.push_back(&m.dcache(c));
        if (m.params().ifetchCoherence)
            ports.push_back(&m.icache(c));
    }
    return ports;
}

/** The invariants a conflict run's closed form rests on, over every
 *  line of @p touched: on a bus, a port that holds a line Exclusive or
 *  Modified is its only holder (MESI single ownership); with synonym
 *  self-snoop, no cache holds a line twice. */
void
expectCoherent(Machine &m, const std::vector<Extent> &touched)
{
    const std::vector<const Cache *> ports = busPorts(m);
    const CacheGeometry &dgeo = m.dcache().geometry();
    for (const Extent &e : touched) {
        PhysAddr last_line(1); // no line starts at an odd address
        for (std::uint32_t i = 0; i < e.count; ++i) {
            const PhysAddr line = dgeo.lineBase(
                physOf(m, e.base.plus(std::uint64_t(i) * e.stride)));
            if (line == last_line)
                continue;
            last_line = line;
            for (const Cache *owner : ports) {
                if (owner->heldState(line) < MesiState::Exclusive)
                    continue;
                for (const Cache *other : ports)
                    ASSERT_TRUE(other == owner || other->copiesOf(line) == 0)
                        << owner->name() << " owns line " << line.value
                        << " that " << other->name() << " holds";
            }
            if (!m.params().synonymCoherence)
                continue;
            for (std::uint32_t c = 0; c < m.numCpus(); ++c) {
                ASSERT_LE(m.dcache(c).copiesOf(line), 1u)
                    << "line " << line.value;
                ASSERT_LE(m.icache(c).copiesOf(line), 1u)
                    << "line " << line.value;
            }
        }
    }
}

/** A copy op: @p words words from @p src to @p dst. */
struct CopyOp
{
    VirtAddr src;
    VirtAddr dst;
    std::uint32_t words;
};

/** Draw a copy inside the window of @p page_bytes pages. */
CopyOp
drawCopy(Random &rng, std::uint32_t page_bytes)
{
    const std::uint64_t window_end = kWindow + kWindowPages * page_bytes;
    // Half the copies put both sides at one colour: pages 16 or 32
    // apart, 48 apart (the same frame, so one line), or one page. Half
    // put them apart, 24 pages apart on the same frame at another
    // colour now and then.
    const std::uint64_t page_words = page_bytes / 4;
    std::uint64_t dist = 16 * rng.below(4);
    if (rng.chance(1, 2)) {
        dist = 1 + rng.below(kWindowPages - 5);
        dist += dist % 16 == 0;
    }
    const std::uint64_t low = rng.below(kWindowPages - dist);
    const std::uint64_t low_word = rng.below(page_words);
    // Mostly nearly the same word of the page on both sides, as a page
    // copy has: then lines pair up, and on one frame the sides overlap
    // within a line.
    const std::uint64_t high_word = rng.chance(3, 4)
        ? (low_word + page_words - 2 + rng.below(5)) % page_words
        : rng.below(page_words);
    const VirtAddr low_va(kWindow + low * page_bytes + 4 * low_word);
    const VirtAddr high_va(kWindow + (low + dist) * page_bytes +
                           4 * high_word);
    const std::uint64_t room = (window_end - high_va.value) / 4;
    const std::uint64_t most = rng.chance(1, 3) ? 12 : 3 * page_words;
    const std::uint32_t words =
        static_cast<std::uint32_t>(rng.between(1, std::min(room, most)));
    if (rng.chance(1, 2))
        return {low_va, high_va, words};
    return {high_va, low_va, words};
}

/** How a copy met a direct-mapped data cache, over its word pairs
 *  whose two distinct lines share a set (the pair's load and store
 *  evict each other). The copy left every page it touched mapped. */
struct CopyShape
{
    bool conflicting = false; ///< some pair's lines share a set
    /** and for some such pair a peer port still holds the source line,
     *  which the pair's bus-read left Shared */
    bool peerSource = false;
};

CopyShape
copyShape(Machine &m, const CopyOp &copy)
{
    CopyShape shape;
    const CacheGeometry &geo = m.dcache().geometry();
    if (geo.associativity() != 1)
        return shape;
    std::vector<const Cache *> peers = busPorts(m);
    std::erase(peers, &m.dcache());
    for (std::uint32_t k = 0; k < copy.words; ++k) {
        const VirtAddr s = copy.src.plus(4 * std::uint64_t(k));
        const VirtAddr d = copy.dst.plus(4 * std::uint64_t(k));
        const PhysAddr s_pa = physOf(m, s);
        const PhysAddr d_pa = physOf(m, d);
        if (geo.setIndex(s, s_pa) != geo.setIndex(d, d_pa) ||
            geo.lineBase(s_pa) == geo.lineBase(d_pa))
            continue;
        shape.conflicting = true;
        for (const Cache *peer : peers) {
            if (peer->copiesOf(s_pa) == 0)
                continue;
            EXPECT_EQ(peer->heldState(s_pa), MesiState::Shared)
                << peer->name() << " at " << s_pa.value;
            shape.peerSource = true;
        }
    }
    return shape;
}

struct Case
{
    std::string name;
    MachineParams params;
    std::uint64_t stream = 0; ///< index of the case's op stream
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

using RangeLockstepTest = ::testing::TestWithParam<Case>;

TEST_P(RangeLockstepTest, RangesMatchPerWordLoops)
{
    const MachineParams &params = GetParam().params;
    Twin ranged(params);
    Twin looped(params);
    const std::uint32_t page_bytes = params.pageBytes;
    const std::uint64_t window_end = kWindow + kWindowPages * page_bytes;
    const std::uint64_t window_words = (window_end - kWindow) / 4;

    auto both = [&](auto &&fn) {
        fn(ranged);
        fn(looped);
    };

    auto checkCoherent = [&](const std::vector<Extent> &touched) {
        both([&](Twin &t) {
            ASSERT_NO_FATAL_FAILURE(expectCoherent(t.machine, touched));
        });
    };

    Random rng(streamSeed(kSeed, GetParam().stream));
    std::uint64_t runs_possible = 0;
    std::uint64_t copies_conflicting = 0;
    std::uint64_t copies_peer_source = 0;
    std::uint64_t copies_apart = 0;
    // Drawn one copy ahead, so the peer can touch its source first.
    CopyOp next_copy = drawCopy(rng, page_bytes);
    for (int step = 0; step < kSteps; ++step) {
        const std::uint64_t op = rng.below(14);
        const SpaceVa page(kSpace,
                           VirtAddr(kWindow +
                                    rng.below(kWindowPages) * page_bytes));
        SCOPED_TRACE("step " + std::to_string(step) + " op " +
                     std::to_string(op));
        if (op == 0) {
            both([&](Twin &t) {
                t.machine.tlbShootdownPage(page);
                t.machine.pageTable().remove(page);
            });
            continue;
        }
        if (op == 1) {
            both([&](Twin &t) {
                if (t.machine.pageTable().lookup(page) != nullptr)
                    t.machine.pageTable().setProtection(
                        page, Protection::readOnly());
            });
            continue;
        }
        // The peer CPU takes ops 2 and 7, so some copy sources are
        // peer lines.
        if ((op == 2 || op == 7) && params.numCpus > 1) {
            const bool store = rng.chance(1, 2);
            std::uint64_t start = kWindow + 4 * rng.below(window_words - 64);
            // Mostly inside the next copy's source, so its conflict
            // runs find the line in the peer, which the copy's first
            // load leaves Shared.
            if (rng.chance(3, 4))
                start = std::min(next_copy.src.value +
                                     4 * rng.below(next_copy.words),
                                 window_end - 4 * 64);
            const VirtAddr va(start);
            const std::uint32_t n =
                static_cast<std::uint32_t>(rng.between(1, 64));
            const std::uint32_t value =
                static_cast<std::uint32_t>(rng.next64());
            both([&](Twin &t) {
                Cpu &peer = *t.cpus[1];
                for (std::uint32_t i = 0; i < n; ++i) {
                    if (store)
                        peer.store(va.plus(4 * i), value + i);
                    else
                        (void)peer.load(va.plus(4 * i));
                }
            });
            ASSERT_NO_FATAL_FAILURE(checkCoherent({{va, n, 4}}));
            continue;
        }

        // Now and then no observer: runs then skip the callbacks, and
        // the probes still see every stored word.
        const bool observed = !rng.chance(1, 4);
        both([&](Twin &t) {
            t.machine.setObserver(observed ? &t.recorder : nullptr);
        });
        Cpu &rc = *ranged.cpus[0];
        Cpu &lc = *looped.cpus[0];

        if (op >= 3 && op < 7) {
            const CopyOp copy = next_copy;
            next_copy = drawCopy(rng, page_bytes);
            SCOPED_TRACE("copy src " + std::to_string(copy.src.value) +
                         " dst " + std::to_string(copy.dst.value) +
                         " words " + std::to_string(copy.words));

            rc.copyRange(copy.dst, copy.src, copy.words);
            for (std::uint32_t k = 0; k < copy.words; ++k)
                lc.store(copy.dst.plus(4 * std::uint64_t(k)),
                         lc.load(copy.src.plus(4 * std::uint64_t(k))));
            const CopyShape shape = copyShape(ranged.machine, copy);
            copies_conflicting += shape.conflicting;
            copies_peer_source += shape.peerSource;
            copies_apart += !shape.conflicting;
            // A copy's bus transactions snoop the coherent I-caches.
            std::vector<CacheKind> kinds{CacheKind::Data};
            if (params.ifetchCoherence)
                kinds.push_back(CacheKind::Instruction);
            const std::vector<Extent> touched{{copy.src, copy.words, 4},
                                              {copy.dst, copy.words, 4}};
            ASSERT_NO_FATAL_FAILURE(
                expectSame(ranged, looped, kinds, touched));
            ASSERT_NO_FATAL_FAILURE(checkCoherent(touched));
            continue;
        }

        const std::uint64_t kind = rng.below(5);
        const AccessType type = kind < 2 ? AccessType::Load
            : kind < 4                   ? AccessType::Store
                                         : AccessType::IFetch;
        const std::uint32_t line = type == AccessType::IFetch
            ? params.icacheLineBytes
            : params.dcacheLineBytes;
        const std::uint32_t strides[] = {4, 8, 16, line, 2 * line};
        const std::uint32_t stride = strides[rng.below(5)];
        const VirtAddr base(kWindow + 4 * rng.below(window_words));
        const std::uint64_t room = (window_end - 4 - base.value) / stride + 1;
        const std::uint64_t most =
            rng.chance(1, 3) ? 12 : 3 * page_bytes / stride;
        const std::uint32_t count = static_cast<std::uint32_t>(
            rng.between(1, std::min(room, most)));
        const std::uint32_t seed = static_cast<std::uint32_t>(rng.next64());
        const std::uint32_t seed_step =
            static_cast<std::uint32_t>(rng.below(3));
        SCOPED_TRACE(std::string("range ") + accessTypeName(type) +
                     " base " + std::to_string(base.value) + " count " +
                     std::to_string(count) + " stride " +
                     std::to_string(stride));
        if (stride < line && count > 1)
            ++runs_possible;

        switch (type) {
          case AccessType::Load:
            rc.loadRange(base, count, stride);
            for (std::uint32_t i = 0; i < count; ++i)
                (void)lc.load(base.plus(std::uint64_t(i) * stride));
            break;
          case AccessType::Store:
            rc.storeRange(base, count, stride, seed, seed_step);
            for (std::uint32_t i = 0; i < count; ++i)
                lc.store(base.plus(std::uint64_t(i) * stride),
                         seed + i * seed_step);
            break;
          case AccessType::IFetch:
            rc.ifetchRange(base, count, stride);
            for (std::uint32_t i = 0; i < count; ++i)
                (void)lc.ifetch(base.plus(std::uint64_t(i) * stride));
            break;
        }
        const std::vector<Extent> touched{{base, count, stride}};
        ASSERT_NO_FATAL_FAILURE(expectSame(
            ranged, looped,
            {type == AccessType::IFetch ? CacheKind::Instruction
                                        : CacheKind::Data},
            touched));
        ASSERT_NO_FATAL_FAILURE(checkCoherent(touched));
    }

    // The stream did real work: ranges with line runs, copies whose
    // line pairs conflict in a direct-mapped set (on a multiprocessor,
    // also with a peer holding the source Shared) and copies whose
    // lines stay resident together, faults, fills.
    EXPECT_GT(runs_possible, 50u);
    EXPECT_GT(copies_apart, 30u);
    if (params.dcacheWays == 1) {
        EXPECT_GT(copies_conflicting, 10u);
        if (params.numCpus > 1) {
            EXPECT_GT(copies_peer_source, 10u);
        }
    }
    EXPECT_GT(ranged.cpus[0]->faultCount(), 0u);
    EXPECT_GT(ranged.machine.stats().value(
                  ranged.machine.dcache().name() + ".fills"),
              0u);
}

std::vector<Case>
machines()
{
    std::vector<Case> out;
    out.push_back({"hp720", MachineParams::hp720()});

    MachineParams two_way = MachineParams::hp720();
    two_way.dcacheWays = two_way.icacheWays = 2;
    out.push_back({"two_way", two_way});

    MachineParams sixteen_way = MachineParams::hp720();
    sixteen_way.dcacheWays = sixteen_way.icacheWays = 16;
    out.push_back({"sixteen_way", sixteen_way});

    MachineParams pipt = MachineParams::hp720();
    pipt.dcacheIndexing = pipt.icacheIndexing = Indexing::Physical;
    out.push_back({"pipt", pipt});

    MachineParams write_through = MachineParams::hp720();
    write_through.dcachePolicy = WritePolicy::WriteThrough;
    out.push_back({"write_through", write_through});

    MachineParams mesi = MachineParams::hp720();
    mesi.numCpus = 2;
    out.push_back({"mesi_2cpu", mesi});

    // The coherence suite's hardware-coherent machine: MESI, synonym
    // self-snoop, coherent instruction caches and snooping DMA.
    MachineParams hw = mesi;
    hw.synonymCoherence = true;
    hw.ifetchCoherence = true;
    hw.dmaSnoops = true;
    out.push_back({"hw_coherent", hw});

    // Fewer TLB entries than window pages: LRU victim choice matters.
    MachineParams tlb4 = MachineParams::hp720();
    tlb4.tlbEntries = 4;
    out.push_back({"tlb4", tlb4});

    // Shorter and longer lines: more and fewer runs per page.
    MachineParams line16 = MachineParams::hp720();
    line16.dcacheLineBytes = line16.icacheLineBytes = 16;
    out.push_back({"line16", line16});

    MachineParams line128 = MachineParams::hp720();
    line128.dcacheLineBytes = line128.icacheLineBytes = 128;
    out.push_back({"line128", line128});

    // One TLB entry: a copy's page pair never forms.
    MachineParams tlb1 = MachineParams::hp720();
    tlb1.tlbEntries = 1;
    out.push_back({"tlb1", tlb1});

    // A uniprocessor with synonym self-snoop: fills snoop the cache's
    // other colours, and a conflict run asserts one copy per line.
    MachineParams synonym = MachineParams::hp720();
    synonym.synonymCoherence = true;
    out.push_back({"synonym_uni", synonym});

    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].params.numFrames = 32;
        out[i].stream = i;
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(Machines, RangeLockstepTest,
                         ::testing::ValuesIn(machines()),
                         [](const auto &machine) {
                             return machine.param.name;
                         });

} // anonymous namespace
} // namespace vic
