/**
 * @file
 * The pmap entry points of the paper's lazy strategy: Figure 1's
 * CacheControl (sync → LazyPmap::planCacheControl → apply) and what
 * calls it. Like ClassicRules (core/classic_rules.hh) they are written
 * once over a per-frame View, which LazyPmap and the static verifier
 * both run. The View is ClassicRules' without the residue and exec
 * mode (nor does lazy state depend on list order), plus dstate() and
 * istate(), the frame's Table 3 vectors; applyProtections(), Figure
 * 1's final stanza (each mapping may then do what
 * LazyPmap::cacheStateProt allows, within its VM protection); and
 * countSync(), called per modified bit folded into cache_dirty.
 */

#ifndef VIC_CORE_LAZY_RULES_HH
#define VIC_CORE_LAZY_RULES_HH

#include <cstddef>
#include <optional>

#include "common/logging.hh"
#include "core/lazy_pmap.hh"

namespace vic
{

template <typename View>
class LazyRules
{
  public:
    using Va = typename View::Va;
    using Mapping = typename View::Mapping;
    using Reason = Pmap::Reason;
    using Site = Pmap::OpSite;

    // Every cache op CacheControl issues, by the entry point that ran
    // it.
    static constexpr Site kEnter{Reason::NewMap, "lazy.enter"};
    static constexpr Site kIFetchEnter{Reason::IFetch,
                                       "lazy.ifetch-enter"};
    static constexpr Site kFault{Reason::Fault, "lazy.fault"};
    static constexpr Site kIFetchFault{Reason::IFetch,
                                       "lazy.ifetch-fault"};
    static constexpr Site kDmaIn{Reason::DmaWrite, "lazy.dma-in"};
    static constexpr Site kDmaOut{Reason::DmaRead, "lazy.dma-out"};

    explicit LazyRules(const PolicyConfig &policy) : cfg(policy) {}

    /** Pmap::enter of unmapped @p va: the mapping comes in with no
     *  access and CacheControl grants what the state allows. */
    void
    enter(View &v, Va va, Protection vm_prot, AccessType access,
          const Pmap::EnterHints &hints)
    {
        v.install(va, vm_prot, Protection::none(), false);
        cacheControl(v, cpuOp(access), va, access, hints.willOverwrite,
                     hints.needData,
                     access == AccessType::IFetch ? kIFetchEnter : kEnter);
    }

    /** Pmap::remove of @p va. Lazy unmap performs no cache operation:
     *  the consistency state persists on the frame and is reconciled
     *  when the frame is next touched. */
    void
    remove(View &v, Va va)
    {
        const std::optional<Mapping> m = v.find(va);
        if (!m)
            return;
        // Capture dirtiness carried by the hardware modified bit
        // before the entry disappears.
        if (cfg.useModifiedBit)
            syncDirty(v);
        (void)v.drop(*m);
    }

    /** Pmap::resolveConsistencyFault: @return false if the denial is
     *  not the policy's (unmapped, or a genuine VM-level denial such
     *  as copy-on-write). */
    bool
    resolveFault(View &v, Va va, AccessType access)
    {
        const std::optional<Mapping> m = v.find(va);
        if (!m)
            return false;
        if (!protPermits(v.vmProt(*m), access))
            return false;
        cacheControl(v, cpuOp(access), va, access, false, true,
                     access == AccessType::IFetch ? kIFetchFault
                                                  : kFault);
        vic_assert(protPermits(v.hwProt(*m), access),
                   "consistency fault did not enable the access");
        return true;
    }

    /** Pmap::dmaRead: dirty data must reach memory first. */
    void
    dmaRead(View &v, bool need_data)
    {
        cacheControl(v, MemOp::DmaRead, std::nullopt, AccessType::Load,
                     false, need_data, kDmaOut);
    }

    /** Pmap::dmaWrite: no cached copy may shadow the device's data. */
    void
    dmaWrite(View &v)
    {
        cacheControl(v, MemOp::DmaWrite, std::nullopt, AccessType::Load,
                     false, false, kDmaIn);
    }

    /** Recover cache_dirty from hardware page-modified bits (the
     *  Section 4.1 optimisation). */
    static void
    syncDirty(View &v)
    {
        CacheStateVector &d = v.dstate();
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (!v.takeModified(v.at(i)))
                continue;
            v.countSync();
            if (!d.cacheDirty) {
                // A write was permitted without a fault, which the
                // protection logic only allows while exactly one data
                // cache page is mapped.
                vic_assert(d.mapped.exactlyOne(),
                           "modified bit with %u mapped colours",
                           d.mapped.count());
                d.cacheDirty = true;
            }
        }
    }

  private:
    const PolicyConfig &cfg;

    static MemOp
    cpuOp(AccessType access)
    {
        return isWrite(access) ? MemOp::CpuWrite : MemOp::CpuRead;
    }

    /**
     * The CacheControl algorithm (Figure 1). @p target is the target
     * virtual address for CPU operations (absent for DMA); @p access
     * distinguishes data references from instruction fetches;
     * @p will_overwrite and @p need_data are the semantic hints;
     * @p site attributes any flushes/purges.
     */
    void
    cacheControl(View &v, MemOp op, std::optional<Va> target,
                 AccessType access, bool will_overwrite, bool need_data,
                 const Site &site)
    {
        v.chargeBookkeeping();

        if (cfg.useModifiedBit)
            syncDirty(v);

        const bool cpu_op = op == MemOp::CpuRead || op == MemOp::CpuWrite;
        vic_assert(cpu_op == target.has_value(),
                   "cacheControl: %s and target mismatch", memOpName(op));
        vic_assert(!(op == MemOp::CpuWrite &&
                     access == AccessType::IFetch),
                   "instruction fetches cannot write");

        std::optional<CachePageId> cd, ci;
        if (target) {
            cd = v.dColour(*target);
            ci = v.iColour(*target);
        }

        // Stanzas 2-5: decide state transitions and the required cache
        // operations, then perform the latter on the caches. The
        // planned operations depend only on the pre-operation state,
        // so executing them after the full plan is equivalent to the
        // interleaved form.
        const LazyPmap::Plan planned = LazyPmap::planCacheControl(
            v.dstate(), v.istate(), op, cd, ci, access, will_overwrite,
            need_data, cfg.useNeedData, cfg.useWillOverwrite);
        for (const LazyPmap::PlannedOp &p : planned) {
            if (p.cache == CacheKind::Instruction)
                v.purgeInst(p.colour, site);
            else if (p.op == RequiredOp::Flush)
                v.flushData(p.colour, site);
            else
                v.purgeData(p.colour, site);
        }

        // Stanza 6: reprogram protections so no inconsistency can be
        // perceived and every future transition traps.
        v.applyProtections();

        v.dstate().checkInvariants();
        v.istate().checkInvariants();
    }
};

} // namespace vic

#endif // VIC_CORE_LAZY_RULES_HH
