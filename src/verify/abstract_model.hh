/**
 * @file
 * Abstract product machine for the static protocol verifier.
 *
 * Models ONE physical page of a virtually indexed, physically tagged,
 * write-back machine as the product of three components:
 *
 *  1. the ground truth — a "freshness" lattice recording which copy of
 *     the page's representative word currently holds the newest value:
 *     memory, a data-cache page, or an instruction-cache page. The
 *     paper's invariants are properties of this component alone: no
 *     stale read (a CPU load/ifetch must hit a fresh copy), no
 *     shadowed DMA (a device read must see fresh memory), no lost
 *     dirty write-back (destroying the only fresh copy is detected the
 *     moment anything observes the survivor);
 *  2. the policy's own bookkeeping — the Table 3 mapped/stale/dirty
 *     vectors for the lazy strategy, or the Tut residue and
 *     write-xor-execute mode for the classic ones;
 *  3. the mapping layer — which virtual alias slots are live, in
 *     which list order, their hardware protections and page-table
 *     modified bits.
 *
 * The model owns only the ground truth, the alias slots and the
 * trap-and-retry loop. Every policy decision — what a pmap entry
 * point does to components 2 and 3 and which cache ops it issues — is
 * made by the pmaps' own code: LazyRules (core/lazy_rules.hh) and
 * ClassicRules (core/classic_rules.hh) run over a view of this state,
 * exactly as LazyPmap and ClassicPmap run them over theirs. The model
 * cannot drift from the simulator, and a bug in either policy is a bug
 * the verifier sees.
 *
 * The event alphabet covers the paper's whole consistency problem:
 * loads, stores and instruction fetches through aligned and unaligned
 * alias slots, DMA in both directions, unmap, and (for the per-VA Tut
 * policy) remap at a fresh virtual address. Mapping is implicit — an
 * access through a dead slot takes the kernel's demand-mapping path,
 * entering the translation with default hints, exactly as
 * Kernel::resolveMappingFault does.
 *
 * The model follows a single-word discipline: all CPU and DMA traffic
 * is judged by the page's word 0 only. That makes the page-granularity
 * abstraction exact, so every abstract trace is realisable by the
 * concrete replay (replay(), verify/policy_verifier.hh) and every
 * abstract violation corresponds to a ConsistencyOracle violation at
 * the same event. Word 0 stays exact although the replay's DMA moves
 * the whole line that holds it: the line's other words move with it,
 * so under a sound policy they are as fresh as word 0.
 */

#ifndef VIC_VERIFY_ABSTRACT_MODEL_HH
#define VIC_VERIFY_ABSTRACT_MODEL_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/cache_page_state.hh"
#include "core/policy_config.hh"
#include "mc/scenario.hh"
#include "mmu/fault.hh"

namespace vic::verify
{

// ---------------------------------------------------------------------
// Events and traces
// ---------------------------------------------------------------------

enum class EventKind : std::uint8_t
{
    Load,       ///< CPU word load through a slot (maps on demand)
    Store,      ///< CPU word store through a slot (maps on demand)
    IFetch,     ///< CPU instruction fetch through a slot
    Unmap,      ///< pmap remove of a slot's translation
    UnmapMove,  ///< unmap, then move the slot to a fresh (still
                ///< aligned) virtual address — distinguishes per-VA
                ///< residue tracking (Tut) from per-colour tracking
    DmaIn,      ///< device writes memory (e.g. disk read completing)
    DmaOut,     ///< device reads memory (e.g. disk write issued)
};

const char *eventKindName(EventKind k);

/** One step of an abstract execution. @c slot selects the alias slot
 *  for CPU/unmap events and is ignored for DMA. */
struct Event
{
    EventKind kind = EventKind::Load;
    std::uint8_t slot = 0;

    bool operator==(const Event &) const = default;
};

/** "store@B"-style display name. */
std::string eventName(const Event &e);

using Trace = std::vector<Event>;

/** "store@A -> load@B" display form. */
std::string traceName(const Trace &t);

// ---------------------------------------------------------------------
// Alias slots
// ---------------------------------------------------------------------

/**
 * The virtual alias slots of every trace: virtual pages mapping the
 * single physical page under analysis. Slot A has colour 0; B has
 * colour 1, an unaligned alias of A; C has colour 0 again, an aligned
 * alias of A at another virtual address. A slot has the same colour in
 * the data and the instruction cache. This covers every qualitative
 * alias relation the paper discusses. The model, the differential's
 * event classes and the concrete replay all read this one table.
 */
inline constexpr std::array<mc::Slot, 3> kSlots{{{0, 0}, {1, 0}, {0, 1}}};

/** Distinct colours the slots use: the abstract caches are this wide. */
constexpr std::uint32_t kSlotColours = 2;

// ---------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------

enum class ViolationKind : std::uint8_t
{
    StaleLoad,    ///< CPU load observed a non-newest value
    StaleIFetch,  ///< instruction fetch observed a non-newest value
    StaleDmaOut,  ///< device read while memory was not current
};

const char *violationKindName(ViolationKind k);

struct AbstractViolation
{
    ViolationKind kind = ViolationKind::StaleLoad;
    std::uint8_t slot = 0;  ///< slot of the observing event (CPU only)
    std::string detail;     ///< failure-mode classification
};

// ---------------------------------------------------------------------
// Issued-op instrumentation (cost model / necessity analysis)
// ---------------------------------------------------------------------

/**
 * One hardware cache operation a policy issued while executing a step.
 * @c present / @c dirty describe the abstract line at issue time, which
 * under the single-word discipline decides the concrete machine's
 * present/absent cost asymmetry and whether a flush pays a write-back.
 */
struct IssuedOp
{
    CacheKind cache = CacheKind::Data;
    RequiredOp op = RequiredOp::Purge;
    CachePageId colour = 0;
    bool present = false;
    bool dirty = false;
    /** Label of the pmap rules' call site that issued the op
     *  (Pmap::OpSite::label: finer than the simulator's stats
     *  `reason`; see docs/VERIFICATION.md). */
    const char *site = "?";

    /** "flush d0 (present,dirty) @lazy.dma-out"-style display name. */
    std::string name() const;
};

/** Everything one step cost: cache ops issued, faults taken, and pmap
 *  bookkeeping charges. CostModel turns this into cycles. */
struct StepTrace
{
    std::vector<IssuedOp> ops;
    std::uint32_t traps = 0;      ///< CPU faults (kernel entry/exit)
    /** pmap calls that charge MachineParams::pmapOverheadCycles: the
     *  rules' chargeBookkeeping() hook, so exactly the calls the
     *  concrete pmap charges. */
    std::uint32_t pmapCalls = 0;
    /** A store was performed into a present non-newest line. Never
     *  happens under a sound policy; tracked because the adversarial
     *  step semantics diverge exactly here (see stepSkipping). */
    bool staleStore = false;
};

// ---------------------------------------------------------------------
// Model state
// ---------------------------------------------------------------------

/** Compile-time bounds of the state layout. */
constexpr std::uint32_t kMaxColours = 4;
constexpr std::uint32_t kMaxSlots = 4;
static_assert(kSlotColours <= kMaxColours && kSlots.size() <= kMaxSlots);

/**
 * One abstract state: ground truth + mapping layer + policy
 * bookkeeping. Fields used only by one pmap strategy are kept zeroed
 * under the other so equal behaviours collapse to equal states.
 */
struct ModelState
{
    // --- ground truth (freshness lattice) ---
    struct DLine
    {
        bool present = false;  ///< d-cache holds a copy at this colour
        bool fresh = false;    ///< ... and it is the newest value
        bool dirty = false;    ///< ... and it differs from memory
        bool operator==(const DLine &) const = default;
    };
    struct ILine
    {
        bool present = false;
        bool fresh = false;
        bool operator==(const ILine &) const = default;
    };
    bool memFresh = true;  ///< memory holds the newest value
    std::array<DLine, kMaxColours> dline{};
    std::array<ILine, kMaxColours> iline{};

    // --- mapping layer ---
    std::array<bool, kMaxSlots> live{};    ///< translation exists
    std::array<bool, kMaxSlots> modbit{};  ///< page-table modified bit
    std::array<bool, kMaxSlots> vaGen{};   ///< which VA the slot uses
                                           ///< (flipped by UnmapMove)
    std::array<bool, kMaxSlots> hwWrite{}; ///< hardware prot (classic)
    std::array<bool, kMaxSlots> hwExec{};
    /** Slots in mapping-list order (classic semantics depend on
     *  iteration order and swap-removal). */
    std::array<std::uint8_t, kMaxSlots> order{};
    std::uint8_t numLive = 0;
    /** Frame has been entered at least once (pmap has bookkeeping). */
    bool everTouched = false;

    // --- lazy bookkeeping (Table 3), one bit per colour ---
    std::uint8_t dMapped = 0;
    std::uint8_t dStale = 0;
    std::uint8_t iMapped = 0;
    std::uint8_t iStale = 0;
    bool dCacheDirty = false;

    // --- classic bookkeeping ---
    bool execMode = false;
    bool hasResidue = false;
    std::uint8_t residueSlot = 0;
    bool residueGen = false;
    bool residueDirty = false;
    bool residueExec = false;

    bool operator==(const ModelState &) const = default;

    /** Canonical 128-bit packing (hash/dedup key). */
    using Key = std::array<std::uint64_t, 2>;
    Key pack() const;
};

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

/**
 * Executes abstract events against a ModelState for one PolicyConfig.
 * Deterministic and side-effect free apart from the passed state, so a
 * reachability search can use it directly. The traced/skipping entry
 * points use internal scratch members, so one simulator instance must
 * not be stepped from two threads at once.
 *
 * @param adversarial Harden the step semantics for necessity analysis
 *   (the one-op-skipped mutant exploration). Two refinements model
 *   hardware behaviour the exact single-word abstraction cannot see,
 *   both of which only ADD failure paths:
 *    - a store into a present non-newest line leaves the line dirty
 *      but still non-newest (the line's other words stay stale in the
 *      multi-word machine), instead of making it fresh;
 *    - callers must additionally treat any state holding a dirty
 *      non-newest data line as violating (hazard()): under cache
 *      pressure the hardware may write such a line back at any time,
 *      clobbering the newest memory copy.
 *   Exact reachability (verifyPolicy, and its agreement with the
 *   concrete replay) must use the default non-adversarial semantics.
 */
class AbstractSimulator
{
  public:
    explicit AbstractSimulator(const PolicyConfig &policy,
                               bool adversarial = false);

    const PolicyConfig &policy() const { return cfg; }

    /** The event alphabet for this policy. UnmapMove is included only
     *  when the policy can distinguish it from Unmap (per-VA residue
     *  tracking). */
    std::vector<Event> alphabet() const;

    /** Power-up state: nothing mapped, nothing cached, memory fresh. */
    ModelState initial() const;

    /**
     * Apply @p e to @p s in place. Returns the violation if the event
     * observed stale data (the state is still advanced past it, like
     * the concrete machine, which reads the wrong value and carries
     * on).
     */
    std::optional<AbstractViolation> step(ModelState &s,
                                          const Event &e) const;

    /** step() while recording every issued cache op, fault and pmap
     *  invocation into @p out (overwritten). */
    std::optional<AbstractViolation> stepTraced(ModelState &s,
                                                const Event &e,
                                                StepTrace &out) const;

    /**
     * step() with the @p skip-th issued cache op suppressed: the
     * policy's bookkeeping advances as if the op ran, but its hardware
     * effect on the caches does not happen — the one-op-skipped mutant
     * of the necessity analysis. Indices follow stepTraced() op order.
     */
    std::optional<AbstractViolation> stepSkipping(ModelState &s,
                                                  const Event &e,
                                                  std::size_t skip) const;

    /**
     * A dirty non-newest data line is present: under cache pressure
     * the hardware may write it back at any time, destroying the
     * newest memory copy. Adversarial (necessity) exploration treats
     * this as a violation; sound policies never reach such a state
     * (asserted by the analyzers).
     */
    static bool hazard(const ModelState &s);

  private:
    /** The model state as the shared pmap rules' View. */
    class ModelView;

    PolicyConfig cfg;
    bool lazy;
    bool advMode;

    // --- per-step instrumentation scratch (single-threaded use) ---
    mutable StepTrace *rec = nullptr;    ///< recording target, if any
    mutable long skipAt = -1;            ///< op index to suppress
    mutable long opCursor = 0;           ///< ops issued so far this step

    /** Record the op and decide whether its hardware effect applies
     *  (false only for the skipAt-th op of the step). */
    bool issueOp(CacheKind cache, RequiredOp op, CachePageId colour,
                 bool present, bool dirty, const char *site) const;

    // ground-truth transfers, issued from call site @p site
    void gtFlushData(ModelState &s, CachePageId c, const char *site) const;
    void gtPurgeData(ModelState &s, CachePageId c, const char *site) const;
    void gtPurgeInst(ModelState &s, CachePageId c, const char *site) const;
    std::optional<AbstractViolation>
    gtCpuAccess(ModelState &s, std::uint8_t slot, AccessType t) const;
    std::string classify(const ModelState &s, bool ifetch) const;

    // the trap-and-retry CPU path
    std::optional<AbstractViolation>
    cpuAccess(ModelState &s, std::uint8_t slot, AccessType t) const;

    /** Canonical mapping order (lazy) and zeroed unused slots. */
    void normalize(ModelState &s) const;

    /** @return f(rules, view): the policy's pmap rules (LazyRules or
     *  ClassicRules, the code the pmaps run) over a view of @p s. */
    template <typename F>
    auto withPolicy(ModelState &s, F &&f) const;
};

} // namespace vic::verify

#endif // VIC_VERIFY_ABSTRACT_MODEL_HH
