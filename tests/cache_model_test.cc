/**
 * @file
 * The cache against a naive reference model, in lockstep.
 *
 * The model is the cache as its definition reads, with none of the
 * machinery that makes Cache fast: every lookup scans a set's ways,
 * every snoop scans every line, each set keeps an explicit LRU list
 * (most recent first), each line its MESI state and data, and there
 * is no residency index, mask or closed-form run. Seeded op streams
 * drive both through loads, stores, load and store runs, flushes and
 * purges of a line and of a page, the four snoops and bus-less copy
 * runs, on direct-mapped, 2-way, 16-way, physically indexed and
 * write-through geometries. After every op the returned values, a
 * probe of every line at every colour (each word of a present line),
 * the counters, the clock and memory must agree. Victim choice and
 * LRU order are checked here, through the data and state they leave.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

constexpr std::uint32_t kPage = 4096;
constexpr std::uint32_t kLine = 32;
constexpr int kSteps = 1500;
constexpr std::uint64_t kSeed = 0xc0de1;

/** The reference cache: no bus, no self-snoop. */
class Model
{
  public:
    Model(const CacheGeometry &g, WritePolicy p, std::uint64_t frames)
        : geo(g), wb(p == WritePolicy::WriteBack),
          mem(frames * kPage / 4, 0), lines(g.numLines()),
          lru(g.numSets())
    {
        for (Line &l : lines)
            l.data.resize(g.wordsPerLine());
        for (std::uint32_t s = 0; s < g.numSets(); ++s)
            for (std::uint32_t w = 0; w < g.associativity(); ++w)
                lru[s].push_back(w);
        for (const char *name :
             {"reads", "writes", "hits", "misses", "write_backs", "fills",
              "flush_present", "flush_absent", "purge_present",
              "purge_absent", "flush_cycles", "purge_cycles"})
            stats[std::string("c.") + name] = 0;
    }

    struct Line
    {
        MesiState state = MesiState::Invalid;
        std::uint64_t tag = 0;
        std::vector<std::uint32_t> data;
    };

    const CacheGeometry geo;
    const CacheCosts costs{};
    const bool wb;
    std::vector<std::uint32_t> mem;
    std::vector<Line> lines;                     ///< set-major
    std::vector<std::vector<std::uint32_t>> lru; ///< ways, MRU first
    std::map<std::string, std::uint64_t> stats;
    Cycles clock = 0;

    std::uint32_t
    read(VirtAddr va, PhysAddr pa)
    {
        ++stats["c.reads"];
        return at(access(va, pa, true), pa);
    }

    void
    write(VirtAddr va, PhysAddr pa, std::uint32_t v)
    {
        ++stats["c.writes"];
        if (!wb)
            mem[pa.value / 4] = v;
        const int id = access(va, pa, wb);
        if (id < 0)
            return;
        if (wb)
            lines[id].state = MesiState::Modified;
        at(id, pa) = v;
    }

    bool
    remove(VirtAddr va, PhysAddr pa, bool flush)
    {
        const int id = find(va, pa);
        const Cycles cost = id >= 0 ? costs.opLinePresent : costs.opLineAbsent;
        clock += cost;
        const std::string op = flush ? "c.flush" : "c.purge";
        stats[op + "_cycles"] += cost;
        ++stats[op + (id >= 0 ? "_present" : "_absent")];
        if (id >= 0 && flush && lines[id].state == MesiState::Modified)
            writeBack(lines[id]);
        if (id >= 0)
            lines[id].state = MesiState::Invalid;
        return id >= 0;
    }

    /** A snoop of @p pa's line: every valid copy is written back if
     *  dirty and @p write_back, then takes state @p to, if given.
     *  @return {a copy was found, a copy was written back}. */
    std::pair<bool, bool>
    snoop(PhysAddr pa, bool write_back, std::optional<MesiState> to)
    {
        std::pair<bool, bool> seen{false, false};
        for (Line &l : lines) {
            if (l.state == MesiState::Invalid || l.tag != lineOf(pa))
                continue;
            seen.first = true;
            if (write_back && l.state == MesiState::Modified) {
                writeBack(l);
                seen.second = true;
            }
            l.state = to.value_or(l.state);
        }
        return seen;
    }

    /** The line holding (@p va -> @p pa), or -1. */
    int
    find(VirtAddr va, PhysAddr pa) const
    {
        const std::uint32_t set = geo.setIndex(va, pa);
        for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
            const Line &l = lines[set * geo.associativity() + w];
            if (l.state != MesiState::Invalid && l.tag == lineOf(pa))
                return static_cast<int>(set * geo.associativity() + w);
        }
        return -1;
    }

    std::uint32_t &at(int id, PhysAddr pa)
    { return lines[id].data[pa.value % geo.lineBytes() / 4]; }

  private:
    std::uint64_t lineOf(PhysAddr pa) const
    { return pa.value / geo.lineBytes(); }

    void
    writeBack(Line &l)
    {
        std::copy(l.data.begin(), l.data.end(),
                  mem.begin() + l.tag * geo.wordsPerLine());
        l.state = MesiState::Exclusive;
        ++stats["c.write_backs"];
        clock += costs.writeBackPenalty;
    }

    /** One access's hit or miss, fill (if @p allocate) and LRU touch.
     *  @return the line, or -1 for a write-through store miss. */
    int
    access(VirtAddr va, PhysAddr pa, bool allocate)
    {
        clock += costs.hit;
        const std::uint32_t set = geo.setIndex(va, pa);
        int id = find(va, pa);
        ++stats[id >= 0 ? "c.hits" : "c.misses"];
        if (id < 0 && !allocate)
            return -1;
        std::vector<std::uint32_t> &order = lru[set];
        if (id < 0) {
            std::uint32_t way = order.back();
            for (std::uint32_t w = geo.associativity(); w-- > 0;)
                if (lines[set * geo.associativity() + w].state ==
                    MesiState::Invalid)
                    way = w;
            id = static_cast<int>(set * geo.associativity() + way);
            Line &l = lines[id];
            if (l.state == MesiState::Modified)
                writeBack(l);
            l.tag = lineOf(pa);
            l.state = MesiState::Exclusive;
            std::copy_n(mem.begin() + l.tag * geo.wordsPerLine(),
                        geo.wordsPerLine(), l.data.begin());
            ++stats["c.fills"];
            clock += costs.missPenalty;
        }
        const std::uint32_t way = id % geo.associativity();
        order.erase(std::find(order.begin(), order.end(), way));
        order.insert(order.begin(), way);
        return id;
    }
};

struct Config
{
    std::string name;
    std::uint64_t cacheBytes;
    std::uint32_t ways;
    Indexing indexing;
    WritePolicy policy;
    std::uint64_t stream; ///< index of the config's op stream
};

void
PrintTo(const Config &c, std::ostream *os)
{
    *os << c.name;
}

using CacheModelTest = ::testing::TestWithParam<Config>;

TEST_P(CacheModelTest, CacheMatchesTheNaiveModel)
{
    const Config &cfg = GetParam();
    const CacheGeometry geo(cfg.cacheBytes, kLine, kPage, cfg.ways,
                            cfg.indexing);
    // More frames than ways, so every set overflows, and at least two
    // per span colour, so physically indexed frames share sets.
    const std::uint64_t frames = cfg.ways + 7;
    PhysicalMemory mem(frames, kPage);
    CycleClock clk;
    StatSet stats;
    Cache cache("c", geo, CacheCosts{}, cfg.policy, mem, clk, stats);
    Model model(geo, cfg.policy, frames);
    const bool wb = cfg.policy == WritePolicy::WriteBack;
    const std::uint32_t words = geo.wordsPerLine();
    const std::uint32_t span = geo.spanColours();

    Random rng(streamSeed(kSeed, cfg.stream));
    // Mostly a few colours and lines, so sets conflict and aliases
    // coexist; now and then anywhere.
    auto draw = [&](std::uint64_t frame, std::uint64_t colour) {
        const std::uint64_t off =
            kLine * (rng.chance(3, 4) ? rng.below(8)
                                      : rng.below(kPage / kLine)) +
            4 * rng.below(words);
        return std::pair{VirtAddr(colour * kPage + off),
                         PhysAddr(frame * kPage + off)};
    };
    auto anyColour = [&] {
        return rng.chance(3, 4) ? rng.below(std::min(span, 4u))
                                : rng.below(span);
    };
    std::uint64_t hit_runs = 0;
    std::uint64_t conflict_runs = 0;
    for (int step = 0; step < kSteps; ++step) {
        const auto [va, pa] = draw(rng.below(frames), anyColour());
        const std::uint32_t value = static_cast<std::uint32_t>(rng.next64());
        // The word's place in its line, and the words after it there.
        const std::uint32_t first =
            static_cast<std::uint32_t>(pa.value % kLine / 4);
        const std::uint32_t room = words - 1 - first;
        const std::uint64_t op = rng.below(20);
        SCOPED_TRACE("step " + std::to_string(step) + " op " +
                     std::to_string(op) + " va " + std::to_string(va.value) +
                     " pa " + std::to_string(pa.value));
        switch (op) {
          default:
            ASSERT_EQ(cache.read(va, pa), model.read(va, pa));
            break;
          case 5:
          case 6:
          case 7:
            cache.write(va, pa, value);
            model.write(va, pa, value);
            break;
          case 8: {
            ASSERT_EQ(cache.read(va, pa), model.read(va, pa));
            if (room == 0)
                break;
            const std::uint32_t n =
                static_cast<std::uint32_t>(rng.between(1, room));
            const std::uint32_t *line = cache.readRun(va, pa, n);
            for (std::uint32_t k = 1; k <= n; ++k)
                ASSERT_EQ(line[first + k],
                          model.read(va.plus(4 * k), pa.plus(4 * k)));
            break;
          }
          case 9: {
            cache.write(va, pa, value);
            model.write(va, pa, value);
            if (room == 0 || !wb)
                break;
            const std::uint32_t n =
                static_cast<std::uint32_t>(rng.between(1, room));
            std::uint32_t *line = cache.writeRun(va, pa, n);
            for (std::uint32_t k = 1; k <= n; ++k) {
                line[first + k] = value + k;
                model.write(va.plus(4 * k), pa.plus(4 * k), value + k);
            }
            break;
          }
          case 10:
          case 11:
            ASSERT_EQ(op == 10 ? cache.flushLine(va, pa)
                               : cache.purgeLine(va, pa),
                      model.remove(va, pa, op == 10));
            break;
          case 12:
          case 13: {
            const VirtAddr page_va(va.value / kPage * kPage);
            const PhysAddr page_pa(pa.value / kPage * kPage);
            std::uint32_t want = 0;
            for (std::uint32_t o = 0; o < kPage; o += kLine)
                want += model.remove(page_va.plus(o), page_pa.plus(o),
                                     op == 12);
            ASSERT_EQ(op == 12 ? cache.flushPage(page_va, page_pa)
                               : cache.purgePage(page_va, page_pa),
                      want);
            break;
          }
          case 14:
            cache.snoopInvalidateLine(pa);
            model.snoop(pa, false, MesiState::Invalid);
            break;
          case 15:
            ASSERT_EQ(cache.snoopWriteBackLine(pa),
                      model.snoop(pa, true, std::nullopt).second);
            break;
          case 16:
          case 17: {
            const Cache::SnoopReply got = op == 16
                ? cache.snoopBusRead(pa)
                : cache.snoopBusInvalidate(pa);
            const auto want = model.snoop(
                pa, true, op == 16 ? MesiState::Shared : MesiState::Invalid);
            ASSERT_EQ(got.hadCopy, want.first);
            ASSERT_EQ(got.intervened, want.second);
            break;
          }
          case 18:
          case 19: {
            // The destination: half the time the source's place in
            // another frame at its span colour, so that a direct-mapped
            // set conflicts under either indexing.
            auto [dst_va, dst_pa] = draw(rng.below(frames), anyColour());
            if (rng.chance(1, 2)) {
                dst_va = va;
                dst_pa = PhysAddr(
                    (pa.value + kPage * span *
                                    rng.between(1, frames / span - 1)) %
                    (frames / span * span * kPage));
            }
            const std::uint32_t v = cache.read(va, pa);
            ASSERT_EQ(v, model.read(va, pa));
            cache.write(dst_va, dst_pa, v);
            model.write(dst_va, dst_pa, v);
            const std::uint32_t n = std::min(
                room, words - 1 - static_cast<std::uint32_t>(
                                      dst_pa.value % kLine / 4));
            if (n == 0)
                break;
            const bool src_present = model.find(va, pa) >= 0;
            const std::uint32_t *copied =
                cache.copyRun(dst_va, dst_pa, va, pa, n);
            for (std::uint32_t k = 1; k <= n; ++k) {
                const std::uint32_t mv = model.read(va.plus(4 * k),
                                                    pa.plus(4 * k));
                model.write(dst_va.plus(4 * k), dst_pa.plus(4 * k), mv);
                if (copied != nullptr) {
                    ASSERT_EQ(copied[k], mv) << "pair " << k;
                    continue;
                }
                const std::uint32_t cv =
                    cache.read(va.plus(4 * k), pa.plus(4 * k));
                ASSERT_EQ(cv, mv) << "pair " << k;
                cache.write(dst_va.plus(4 * k), dst_pa.plus(4 * k), cv);
            }
            if (copied != nullptr)
                ++(src_present ? hit_runs : conflict_runs);
            break;
          }
        }

        ASSERT_EQ(clk.now(), model.clock);
        ASSERT_EQ(stats.snapshot(), model.stats);
        for (std::uint64_t f = 0; f < frames; ++f) {
            for (std::uint32_t o = 0; o < kPage; o += kLine) {
                const PhysAddr line_pa(f * kPage + o);
                for (std::uint32_t c = 0; c < span; ++c) {
                    const VirtAddr line_va(c * kPage + o);
                    const int id = model.find(line_va, line_pa);
                    const Cache::Probe p = cache.probe(line_va, line_pa);
                    ASSERT_EQ(p.present, id >= 0)
                        << "pa " << line_pa.value << " colour " << c;
                    if (id < 0)
                        continue;
                    ASSERT_EQ(p.state, model.lines[id].state)
                        << "pa " << line_pa.value << " colour " << c;
                    for (std::uint32_t w = 0; w < words; ++w)
                        ASSERT_EQ(cache.probe(line_va.plus(4 * w),
                                              line_pa.plus(4 * w))
                                      .word,
                                  model.lines[id].data[w])
                            << "pa " << line_pa.value << " word " << w;
                }
            }
        }
        for (std::uint64_t w = 0; w < frames * kPage / 4; ++w)
            ASSERT_EQ(mem.readWord(PhysAddr(4 * w)), model.mem[w])
                << "memory word " << w;
    }

    // The stream did real work: every counter moved (a write-through
    // cache never writes back), and copies took the closed forms the
    // geometry allows.
    for (const auto &[name, v] : model.stats)
        EXPECT_TRUE(v > 0 || (!wb && name == "c.write_backs")) << name;
    if (wb) {
        EXPECT_GT(hit_runs, 20u);
        if (cfg.ways == 1) {
            EXPECT_GT(conflict_runs, 20u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelTest,
    ::testing::Values(
        Config{"direct_mapped", 16 * 1024, 1, Indexing::Virtual,
               WritePolicy::WriteBack, 0},
        Config{"two_way", 16 * 1024, 2, Indexing::Virtual,
               WritePolicy::WriteBack, 1},
        Config{"sixteen_way", 16 * 1024, 16, Indexing::Virtual,
               WritePolicy::WriteBack, 2},
        Config{"pipt", 16 * 1024, 1, Indexing::Physical,
               WritePolicy::WriteBack, 3},
        Config{"write_through", 16 * 1024, 1, Indexing::Virtual,
               WritePolicy::WriteThrough, 4}),
    [](const ::testing::TestParamInfo<Config> &config) {
        return config.param.name;
    });

} // anonymous namespace
} // namespace vic
