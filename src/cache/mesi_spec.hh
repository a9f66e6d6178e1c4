/**
 * @file
 * Executable specification of the MESI protocol the CoherenceBus and
 * Cache implement, as pure transition tables.
 *
 * cache.cc realises the protocol imperatively across fill(),
 * writeSlow() and the snoop handlers; these functions state it
 * declaratively, one (state, event) entry at a time, in the same
 * style as core/cache_page_state.hh states Table 2. They are the
 * protocol's source of truth for checking:
 *
 *  - tests/multiprocessor_test.cc drives a three-CPU bus machine
 *    through every local/snoop transition and requires the concrete
 *    line states to match these tables (conformance);
 *  - tests/spec_model_test.cc evaluates every (state, event) cell,
 *    walks every state reachable from Invalid, and checks the
 *    write-back/bus-op structure; each switch has no default:, so
 *    under -Werror=switch a dropped case does not build.
 *
 * Two tables:
 *  - LOCAL: the requesting cache's own transition for a CPU read or
 *    write, including which bus transaction it must issue and the
 *    fill state (Shared iff a peer held the line, Exclusive
 *    otherwise — the nextIfPeerHolds column);
 *  - SNOOP: a peer cache's reaction to a bus transaction, including
 *    whether it must intervene with a write-back (only ever from
 *    Modified — memory is current in every other state).
 */

#ifndef VIC_CACHE_MESI_SPEC_HH
#define VIC_CACHE_MESI_SPEC_HH

#include <array>
#include <cstdint>

#include "cache/cache.hh"

namespace vic
{

/** CPU-side events at the requesting cache. */
enum class MesiLocalEvent : std::uint8_t
{
    Read,   ///< load or instruction fetch
    Write,  ///< store
};

/** Bus-side events observed by a snooping peer. */
enum class MesiSnoopEvent : std::uint8_t
{
    BusRead,        ///< a peer's read miss
    BusInvalidate,  ///< a peer's busReadExclusive or busUpgrade
};

/** Bus transaction a local event must issue. */
enum class MesiBusOp : std::uint8_t
{
    None,              ///< satisfied locally (hit, or no bus)
    BusRead,           ///< read miss fill
    BusReadExclusive,  ///< write miss fill
    BusUpgrade,        ///< write hit on a Shared copy
};

/** All states/events, for exhaustive iteration in tests. */
inline constexpr std::array<MesiState, 4> allMesiStates = {
    MesiState::Invalid, MesiState::Shared, MesiState::Exclusive,
    MesiState::Modified,
};
inline constexpr std::array<MesiLocalEvent, 2> allMesiLocalEvents = {
    MesiLocalEvent::Read, MesiLocalEvent::Write,
};
inline constexpr std::array<MesiSnoopEvent, 2> allMesiSnoopEvents = {
    MesiSnoopEvent::BusRead, MesiSnoopEvent::BusInvalidate,
};

const char *mesiLocalEventName(MesiLocalEvent e);
const char *mesiSnoopEventName(MesiSnoopEvent e);
const char *mesiBusOpName(MesiBusOp op);

struct MesiLocalTransition
{
    MesiState next;             ///< when no peer holds the line
    MesiState nextIfPeerHolds;  ///< when some peer holds a copy
    MesiBusOp bus = MesiBusOp::None;

    bool operator==(const MesiLocalTransition &) const = default;
};

struct MesiSnoopTransition
{
    MesiState next;
    bool writeBack = false;  ///< peer intervenes with its dirty copy

    bool operator==(const MesiSnoopTransition &) const = default;
};

/** The LOCAL table: requesting cache's transition for a CPU event. */
MesiLocalTransition mesiLocalTransition(MesiState current,
                                        MesiLocalEvent e);

/** The SNOOP table: a peer cache's reaction to a bus transaction. */
MesiSnoopTransition mesiSnoopTransition(MesiState current,
                                        MesiSnoopEvent e);

} // namespace vic

#endif // VIC_CACHE_MESI_SPEC_HH
