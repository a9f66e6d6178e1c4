/**
 * @file
 * Tests of the consistency specification itself, on the compiled
 * tables:
 *
 *  - Table 2 (targetTransition/otherTransition): every cell against
 *    the published table, every state reachable from Empty, and every
 *    cell that requires a purge or flush consistent with running the
 *    op first and then the event;
 *  - the SpecExecutor: its invariants, and that its probes agree with
 *    both columns;
 *  - the MESI local and snoop tables: every state reachable from
 *    Invalid and the protocol's write-back/bus-op invariants;
 *  - the Table 4 ladder: each config is its predecessor plus the
 *    feature the paper adds;
 *  - the Table 3 encoding in CacheStateVector.
 *
 * A dropped case in any of these switches does not build
 * (-Werror=switch; see spec_table_misuse.cc).
 */

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/mesi_spec.hh"
#include "core/cache_page_state.hh"
#include "core/phys_page_info.hh"
#include "core/policy_config.hh"
#include "core/spec_executor.hh"

namespace vic
{
namespace
{

using S = CachePageState;
using R = RequiredOp;

// ---------------------------------------------------------------------
// Table 2, transcribed row by row from the paper.
// ---------------------------------------------------------------------

struct Row
{
    MemOp op;
    S from;
    SpecTransition target;
    SpecTransition other;
};

const Row table2[] = {
    // CPU-read
    {MemOp::CpuRead, S::Empty, {S::Present}, {S::Empty}},
    {MemOp::CpuRead, S::Present, {S::Present}, {S::Present}},
    {MemOp::CpuRead, S::Dirty, {S::Dirty}, {S::Empty, R::Flush}},
    {MemOp::CpuRead, S::Stale, {S::Present, R::Purge}, {S::Stale}},
    // CPU-write
    {MemOp::CpuWrite, S::Empty, {S::Dirty}, {S::Empty}},
    {MemOp::CpuWrite, S::Present, {S::Dirty}, {S::Stale}},
    {MemOp::CpuWrite, S::Dirty, {S::Dirty}, {S::Empty, R::Flush}},
    {MemOp::CpuWrite, S::Stale, {S::Dirty, R::Purge}, {S::Stale}},
    // DMA-read (both columns identical: DMA bypasses the cache)
    {MemOp::DmaRead, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::DmaRead, S::Present, {S::Present}, {S::Present}},
    {MemOp::DmaRead, S::Dirty, {S::Empty, R::Flush},
     {S::Empty, R::Flush}},
    {MemOp::DmaRead, S::Stale, {S::Stale}, {S::Stale}},
    // DMA-write
    {MemOp::DmaWrite, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::DmaWrite, S::Present, {S::Stale}, {S::Stale}},
    {MemOp::DmaWrite, S::Dirty, {S::Empty, R::Purge},
     {S::Empty, R::Purge}},
    {MemOp::DmaWrite, S::Stale, {S::Stale}, {S::Stale}},
    // Purge (target only)
    {MemOp::Purge, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::Purge, S::Present, {S::Empty}, {S::Present}},
    {MemOp::Purge, S::Dirty, {S::Empty}, {S::Dirty}},
    {MemOp::Purge, S::Stale, {S::Empty}, {S::Stale}},
    // Flush (target only)
    {MemOp::Flush, S::Empty, {S::Empty}, {S::Empty}},
    {MemOp::Flush, S::Present, {S::Empty}, {S::Present}},
    {MemOp::Flush, S::Dirty, {S::Empty}, {S::Dirty}},
    {MemOp::Flush, S::Stale, {S::Empty}, {S::Stale}},
};

TEST(Table2Test, ExhaustiveMatchAgainstPaper)
{
    // 6 ops x 4 states, both columns: the functions must reproduce
    // the published table cell for cell.
    ASSERT_EQ(std::size(table2), 24u);
    for (const Row &row : table2) {
        SpecTransition t = targetTransition(row.from, row.op);
        EXPECT_EQ(t, row.target)
            << memOpName(row.op) << " target from "
            << cachePageStateName(row.from);
        SpecTransition o = otherTransition(row.from, row.op);
        EXPECT_EQ(o, row.other)
            << memOpName(row.op) << " other from "
            << cachePageStateName(row.from);
    }
}

TEST(Table2Test, OnlyStaleTargetsNeedPurgeOnCpuAccess)
{
    for (MemOp op : {MemOp::CpuRead, MemOp::CpuWrite}) {
        for (S s : allCachePageStates) {
            SpecTransition t = targetTransition(s, op);
            EXPECT_EQ(t.required == R::Purge, s == S::Stale);
        }
    }
}

TEST(Table2Test, DirtyLinesNeverSilentlyVanish)
{
    // A dirty line leaves the dirty state only via an explicit flush
    // or purge (or by staying the newest data). Check every rule.
    for (MemOp op : allMemOps) {
        for (auto column : {targetTransition, otherTransition}) {
            SpecTransition t = column(S::Dirty, op);
            if (t.next != S::Dirty) {
                const bool explicit_removal =
                    t.required != R::None || op == MemOp::Purge ||
                    op == MemOp::Flush;
                EXPECT_TRUE(explicit_removal)
                    << memOpName(op) << " drops dirty data silently";
            }
        }
    }
}

TEST(Table2Test, StateNamesAndLetters)
{
    EXPECT_STREQ(cachePageStateName(S::Empty), "Empty");
    EXPECT_EQ(cachePageStateLetter(S::Stale), 'S');
    EXPECT_STREQ(requiredOpName(R::Flush), "flush");
    EXPECT_STREQ(requiredOpName(R::None), "");
}

TEST(Table2Test, EveryStateReachableFromEmpty)
{
    // Fixed point over both columns from the power-up state: no row of
    // the table is dead specification.
    std::set<S> reach = {S::Empty};
    for (bool grew = true; grew;) {
        grew = false;
        for (S s : std::set<S>(reach)) {
            for (MemOp op : allMemOps) {
                for (auto column : {targetTransition, otherTransition})
                    grew |= reach.insert(column(s, op).next).second;
            }
        }
    }
    EXPECT_EQ(reach.size(), allCachePageStates.size());
}

using Column = SpecTransition (*)(S, MemOp);

/**
 * Cells of @p column that disagree with op-then-event composition. A
 * purge or flush leaves the line Empty, so a cell that requires one
 * must equal the column's (Empty, event) cell with no op.
 */
std::vector<std::pair<S, MemOp>>
compositionFindings(Column column)
{
    std::vector<std::pair<S, MemOp>> bad;
    for (MemOp op : allMemOps) {
        const SpecTransition after_op = column(S::Empty, op);
        for (S s : allCachePageStates) {
            const SpecTransition t = column(s, op);
            if (t.required != R::None &&
                after_op != SpecTransition{t.next})
                bad.emplace_back(s, op);
        }
    }
    return bad;
}

TEST(Table2Test, RequiredOpsComposeWithTheEvent)
{
    EXPECT_TRUE(compositionFindings(targetTransition).empty());
    EXPECT_TRUE(compositionFindings(otherTransition).empty());
}

TEST(Table2Test, CompositionCatchesTheDirtyDmaReadBug)
{
    // The bug Table 2 once shipped with: a flush writes back AND
    // invalidates, so (Dirty, DmaRead) must end Empty, not Present.
    const Column seeded = [](S s, MemOp op) {
        if (s == S::Dirty && op == MemOp::DmaRead)
            return SpecTransition{S::Present, R::Flush};
        return targetTransition(s, op);
    };
    const std::vector<std::pair<S, MemOp>> expect = {
        {S::Dirty, MemOp::DmaRead}};
    EXPECT_EQ(compositionFindings(seeded), expect);
}

// ---------------------------------------------------------------------
// SpecExecutor
// ---------------------------------------------------------------------

TEST(SpecExecutorTest, PowerUpAllEmpty)
{
    SpecExecutor spec(8);
    for (CachePageId c = 0; c < 8; ++c)
        EXPECT_EQ(spec.state(c), S::Empty);
    EXPECT_TRUE(spec.invariantHolds());
    EXPECT_FALSE(spec.dirtyColour().has_value());
}

TEST(SpecExecutorTest, ReadThenWriteThenUnalignedRead)
{
    SpecExecutor spec(4);
    spec.apply(MemOp::CpuRead, 0);
    EXPECT_EQ(spec.state(0), S::Present);

    spec.apply(MemOp::CpuWrite, 0);
    EXPECT_EQ(spec.state(0), S::Dirty);
    EXPECT_EQ(spec.dirtyColour(), std::optional<CachePageId>(0));

    // Unaligned read: the dirty colour must be flushed first.
    auto ops = spec.apply(MemOp::CpuRead, 1);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].colour, 0u);
    EXPECT_EQ(ops[0].op, R::Flush);
    EXPECT_EQ(spec.state(0), S::Empty);
    EXPECT_EQ(spec.state(1), S::Present);
    EXPECT_TRUE(spec.invariantHolds());
}

TEST(SpecExecutorTest, WriteStalesOtherPresentColours)
{
    SpecExecutor spec(4);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuRead, 1);
    spec.apply(MemOp::CpuWrite, 2);
    EXPECT_EQ(spec.state(0), S::Stale);
    EXPECT_EQ(spec.state(1), S::Stale);
    EXPECT_EQ(spec.state(2), S::Dirty);
    EXPECT_TRUE(spec.invariantHolds());
}

TEST(SpecExecutorTest, StaleTargetPurgedBeforeUse)
{
    SpecExecutor spec(2);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuWrite, 1);
    auto ops = spec.apply(MemOp::CpuRead, 0);
    // The dirty colour 1 is flushed AND the stale target 0 purged.
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].op, R::Flush);
    EXPECT_EQ(ops[0].colour, 1u);
    EXPECT_EQ(ops[1].op, R::Purge);
    EXPECT_EQ(ops[1].colour, 0u);
    EXPECT_EQ(spec.state(0), S::Present);
}

TEST(SpecExecutorTest, DmaWriteStalesEverything)
{
    SpecExecutor spec(3);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuWrite, 1);
    auto ops = spec.apply(MemOp::DmaWrite, std::nullopt);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].op, R::Purge);  // dirty purged, not flushed
    EXPECT_EQ(spec.state(0), S::Stale);
    EXPECT_EQ(spec.state(1), S::Empty);
    EXPECT_EQ(spec.state(2), S::Empty);
}

TEST(SpecExecutorTest, DmaReadFlushesDirtyAndEmptiesIt)
{
    SpecExecutor spec(2);
    spec.apply(MemOp::CpuWrite, 0);
    auto ops = spec.apply(MemOp::DmaRead, std::nullopt);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].op, R::Flush);
    // The flush writes back and invalidates, so the page is Empty —
    // not Present, which would cost a redundant purge later.
    EXPECT_EQ(spec.state(0), S::Empty);
}

TEST(SpecExecutorTest, PurgeAndFlushEmptyOnlyTheTarget)
{
    SpecExecutor spec(2);
    spec.apply(MemOp::CpuRead, 0);
    spec.apply(MemOp::CpuRead, 1);
    spec.apply(MemOp::Purge, 0);
    EXPECT_EQ(spec.state(0), S::Empty);
    EXPECT_EQ(spec.state(1), S::Present);
}

TEST(SpecExecutorTest, InvariantViolationsDetected)
{
    SpecExecutor spec(2);
    spec.setState(0, S::Dirty);
    spec.setState(1, S::Dirty);
    EXPECT_FALSE(spec.invariantHolds());
    spec.setState(1, S::Present);
    EXPECT_FALSE(spec.invariantHolds());  // dirty + present coexist
    spec.setState(1, S::Stale);
    EXPECT_TRUE(spec.invariantHolds());
}

TEST(SpecExecutorTest, InvariantPreservedUnderAllOpSequences)
{
    // Depth-4 exhaustive search over (op, colour) on 2 colours: the
    // invariant must hold in every reachable state.
    struct Choice
    {
        MemOp op;
        std::optional<CachePageId> target;
    };
    std::vector<Choice> choices;
    for (CachePageId c = 0; c < 2; ++c) {
        for (MemOp op : {MemOp::CpuRead, MemOp::CpuWrite, MemOp::Purge,
                         MemOp::Flush})
            choices.push_back({op, c});
    }
    choices.push_back({MemOp::DmaRead, std::nullopt});
    choices.push_back({MemOp::DmaWrite, std::nullopt});

    const std::size_t n = choices.size();
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            for (std::size_t c = 0; c < n; ++c) {
                for (std::size_t d = 0; d < n; ++d) {
                    SpecExecutor spec(2);
                    spec.apply(choices[a].op, choices[a].target);
                    spec.apply(choices[b].op, choices[b].target);
                    spec.apply(choices[c].op, choices[c].target);
                    spec.apply(choices[d].op, choices[d].target);
                    ASSERT_TRUE(spec.invariantHolds());
                }
            }
        }
    }
}

/** The op @p ops applied to @p colour, or None. */
RequiredOp
opOn(const std::vector<SpecExecutor::AppliedOp> &ops, CachePageId colour)
{
    RequiredOp applied = R::None;
    for (const SpecExecutor::AppliedOp &a : ops) {
        if (a.colour == colour)
            applied = a.op;
    }
    return applied;
}

TEST(SpecExecutorTest, ProbesMatchBothColumns)
{
    for (MemOp op : allMemOps) {
        const bool dma = op == MemOp::DmaRead || op == MemOp::DmaWrite;
        for (S s : allCachePageStates) {
            // One colour: it is the target (DMA has no target, and
            // both columns agree there).
            SpecExecutor one(1);
            one.setState(0, s);
            const auto one_ops = one.apply(
                op, dma ? std::nullopt : std::optional<CachePageId>(0));
            EXPECT_EQ((SpecTransition{one.state(0), opOn(one_ops, 0)}),
                      targetTransition(s, op))
                << memOpName(op) << " target from "
                << cachePageStateName(s);

            // Two colours: observe colour 0 while colour 1 is the
            // target.
            SpecExecutor two(2);
            two.setState(0, s);
            const auto two_ops = two.apply(
                op, dma ? std::nullopt : std::optional<CachePageId>(1));
            EXPECT_EQ((SpecTransition{two.state(0), opOn(two_ops, 0)}),
                      otherTransition(s, op))
                << memOpName(op) << " other from "
                << cachePageStateName(s);
        }
    }
}

// ---------------------------------------------------------------------
// MESI local and snoop tables
// ---------------------------------------------------------------------

TEST(MesiSpecTest, EveryStateReachableFromInvalid)
{
    std::set<MesiState> reach = {MesiState::Invalid};
    for (bool grew = true; grew;) {
        grew = false;
        for (MesiState s : std::set<MesiState>(reach)) {
            for (MesiLocalEvent e : allMesiLocalEvents) {
                const MesiLocalTransition t = mesiLocalTransition(s, e);
                grew |= reach.insert(t.next).second;
                grew |= reach.insert(t.nextIfPeerHolds).second;
            }
            for (MesiSnoopEvent e : allMesiSnoopEvents)
                grew |= reach.insert(mesiSnoopTransition(s, e).next).second;
        }
    }
    EXPECT_EQ(reach.size(), allMesiStates.size());
}

TEST(MesiSpecTest, SnoopWritesBackOnlyFromModified)
{
    for (MesiState s : allMesiStates) {
        for (MesiSnoopEvent e : allMesiSnoopEvents) {
            const MesiSnoopTransition t = mesiSnoopTransition(s, e);
            // Memory is current in every state but Modified.
            EXPECT_EQ(t.writeBack, s == MesiState::Modified)
                << mesiStateName(s) << " + " << mesiSnoopEventName(e);
            if (e == MesiSnoopEvent::BusInvalidate) {
                EXPECT_EQ(t.next, MesiState::Invalid) << mesiStateName(s);
            }
        }
    }
}

TEST(MesiSpecTest, LocalTableBusStructure)
{
    for (MesiState s : allMesiStates) {
        for (MesiLocalEvent e : allMesiLocalEvents) {
            const MesiLocalTransition t = mesiLocalTransition(s, e);
            const std::string cell = std::string(mesiStateName(s)) +
                                     " + " + mesiLocalEventName(e);
            if (e == MesiLocalEvent::Write) {
                EXPECT_EQ(t.next, MesiState::Modified) << cell;
                EXPECT_EQ(t.nextIfPeerHolds, MesiState::Modified) << cell;
            }
            const bool fill = t.bus == MesiBusOp::BusRead ||
                              t.bus == MesiBusOp::BusReadExclusive;
            if (fill) {
                EXPECT_EQ(s, MesiState::Invalid) << cell;
            }
            if (t.bus == MesiBusOp::BusRead) {
                EXPECT_EQ(t.nextIfPeerHolds, MesiState::Shared) << cell;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Table 4: configs A-F add one feature at a time
// ---------------------------------------------------------------------

TEST(PolicyLadderTest, EachConfigIsItsPredecessorPlusOneFeature)
{
    PolicyConfig c = PolicyConfig::configB();
    c.name = "C (+align pages)";
    c.alignIpc = true;
    c.alignSharedPages = true;
    EXPECT_TRUE(PolicyConfig::configC() == c);

    PolicyConfig d = PolicyConfig::configC();
    d.name = "D (+aligned prepare)";
    d.alignedPrepare = true;
    EXPECT_TRUE(PolicyConfig::configD() == d);

    PolicyConfig e = PolicyConfig::configD();
    e.name = "E (+need data)";
    e.useNeedData = true;
    EXPECT_TRUE(PolicyConfig::configE() == e);

    PolicyConfig f = PolicyConfig::configE();
    f.name = "F (+will overwrite)";
    f.useWillOverwrite = true;
    EXPECT_TRUE(PolicyConfig::configF() == f);
}

// ---------------------------------------------------------------------
// Table 3 encoding
// ---------------------------------------------------------------------

TEST(Table3Test, EncodingDecodesToAllFourStates)
{
    CacheStateVector v(4);
    // Empty: mapped=false, stale=false.
    EXPECT_EQ(v.decode(0), S::Empty);

    // Present: mapped=true, stale=false, dirty=false.
    v.mapped.set(1);
    EXPECT_EQ(v.decode(1), S::Present);

    // Stale: mapped=false, stale=true.
    v.stale.set(2);
    EXPECT_EQ(v.decode(2), S::Stale);

    // Dirty: mapped=true, dirty bit, unique mapped colour.
    CacheStateVector d(4);
    d.mapped.set(3);
    d.cacheDirty = true;
    EXPECT_EQ(d.decode(3), S::Dirty);
    EXPECT_EQ(d.dirtyColour(), 3u);
}

TEST(Table3Test, DirtyRequiresExactlyOneMappedColour)
{
    CacheStateVector v(4);
    v.mapped.set(0);
    v.mapped.set(1);
    v.cacheDirty = true;
    EXPECT_DEATH(v.checkInvariants(), "cacheDirty");
}

TEST(Table3Test, MappedAndStaleAreExclusive)
{
    CacheStateVector v(4);
    v.mapped.set(0);
    v.stale.set(0);
    EXPECT_DEATH(v.decode(0), "mapped and stale");
}

TEST(Table3Test, InvariantCheckNamesTheColourBothMappedAndStale)
{
    // 70 colours: the overlap sits in the second word.
    CacheStateVector v(70);
    v.mapped.set(3);
    v.stale.set(64);
    v.checkInvariants(); // disjoint: passes
    v.stale.set(66);
    v.mapped.set(66);
    EXPECT_DEATH(v.checkInvariants(), "colour 66 both mapped and stale");
}

TEST(Table3Test, ClearResetsEverything)
{
    CacheStateVector v(4);
    v.mapped.set(0);
    v.stale.set(1);
    v.cacheDirty = true;
    v.clear();
    EXPECT_EQ(v.decode(0), S::Empty);
    EXPECT_EQ(v.decode(1), S::Empty);
    EXPECT_FALSE(v.cacheDirty);
}

TEST(PhysPageInfoTest, MappingListOperations)
{
    PhysPageInfo info(4, 4);
    PageTable pt(4096);
    const auto add = [&](SpaceVa va, Protection prot) {
        info.addMapping(va, prot, pt.enter(va, 0, prot));
    };
    EXPECT_FALSE(info.hasMappings());
    add(SpaceVa(1, VirtAddr(0x1000)), Protection::readWrite());
    add(SpaceVa(2, VirtAddr(0x2000)), Protection::readOnly());
    EXPECT_TRUE(info.hasMappings());
    ASSERT_NE(info.findMapping(SpaceVa(1, VirtAddr(0x1000))), nullptr);
    EXPECT_EQ(info.findMapping(SpaceVa(3, VirtAddr(0x1000))), nullptr);
    EXPECT_TRUE(info.removeMapping(SpaceVa(1, VirtAddr(0x1000))));
    EXPECT_FALSE(info.removeMapping(SpaceVa(1, VirtAddr(0x1000))));
    EXPECT_TRUE(info.hasMappings());
}

} // anonymous namespace
} // namespace vic
