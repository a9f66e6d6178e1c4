#include "machine/cpu.hh"

#include "common/logging.hh"

namespace vic
{

namespace
{

/** A single access may legitimately fault a handful of times (mapping
 *  fault, then consistency faults as state transitions cascade); more
 *  than this means the OS layer is livelocked. */
constexpr int maxFaultRetries = 8;

} // anonymous namespace

Cpu::Cpu(Machine &m, std::uint32_t cpu_id)
    : mach(m), cpuId(cpu_id), tlbRef(m.tlb(cpu_id)),
      dcacheRef(m.dcache(cpu_id)), icacheRef(m.icache(cpu_id)),
      pageOffsetMask(m.pageBytes() - 1), pageBytesC(m.pageBytes())
{
    vic_assert(cpu_id < m.numCpus(), "cpu id %u out of range", cpu_id);
}

bool
Cpu::deliver(const Fault &fault)
{
    ++faultsTaken;
    mach.clock().advance(mach.params().trapCycles);
    if (!faultHandler) {
        vic_panic("fault with no handler: %s at space=%u va=%llx",
                  accessTypeName(fault.access), fault.address.space,
                  (unsigned long long)fault.address.va.value);
    }
    return faultHandler(fault);
}

std::uint32_t
Cpu::accessMapped(AccessType type, VirtAddr va, std::uint32_t store_value,
                  PageTableEntry *pte)
{
    // Account stage, translation side: referenced/modified through the
    // TLB's mutable handle — no page-table walk.
    pte->referenced = true;
    const PhysAddr pa(pte->frame * pageBytesC +
                      (va.value & pageOffsetMask));
    MemoryObserver *obs = mach.observer();

    switch (type) {
      case AccessType::Load: {
          // Coherence is the cache's own job now: a miss issues a bus
          // read that snoops the peers (coherence.hh); a hit is silent
          // exactly as real MESI hardware is.
          std::uint32_t v;
          if (!dcacheRef.tryReadHit(va, pa, v))
              v = dcacheRef.read(va, pa);
          if (obs)
              obs->cpuLoad(pa, v);
          return v;
      }
      case AccessType::IFetch: {
          std::uint32_t v;
          if (!icacheRef.tryReadHit(va, pa, v))
              v = icacheRef.read(va, pa);
          if (obs)
              obs->cpuIFetch(pa, v);
          return v;
      }
      case AccessType::Store: {
          pte->modified = true;
          // Observer sees the store before the cache commits it (the
          // oracle's shadow memory must be current when the written
          // line later leaves the cache). A Shared-line hit falls out
          // of tryWriteHit into write(), which broadcasts the upgrade.
          if (obs)
              obs->cpuStore(pa, store_value);
          if (!dcacheRef.tryWriteHit(va, pa, store_value))
              dcacheRef.write(va, pa, store_value);
          return 0;
      }
    }
    vic_panic("unreachable access type");
}

std::uint32_t
Cpu::accessSlow(AccessType type, VirtAddr va, std::uint32_t store_value,
                PageTableEntry *pte)
{
    const SpaceVa key(currentSpace, va);

    for (int attempt = 0; attempt < maxFaultRetries; ++attempt) {
        // Attempt 0 reuses the translation the fast path already did —
        // exactly one TLB lookup per attempt, as before the split.
        if (attempt > 0)
            pte = tlbRef.translate(key);

        if (pte != nullptr && protPermits(pte->prot, type))
            return accessMapped(type, va, store_value, pte);

        Fault fault;
        fault.address = key;
        fault.access = type;
        fault.type = pte == nullptr ? FaultType::Unmapped
                                    : FaultType::Protection;
        if (!deliver(fault)) {
            vic_panic("unrecoverable %s fault at space=%u va=%llx",
                      accessTypeName(type), key.space,
                      (unsigned long long)va.value);
        }
    }
    vic_panic("access livelock: %d faults at space=%u va=%llx",
              maxFaultRetries, key.space, (unsigned long long)va.value);
}

std::uint32_t
Cpu::access(AccessType type, VirtAddr va, std::uint32_t store_value)
{
    vic_assert(va.value % 4 == 0, "unaligned CPU access va=%llx",
               (unsigned long long)va.value);
    // Translate + protect stages; the overwhelmingly common outcome
    // (mapped, permitted) continues straight-line into accessMapped.
    PageTableEntry *pte = tlbRef.translate(SpaceVa(currentSpace, va));
    if (pte != nullptr && protPermits(pte->prot, type)) [[likely]]
        return accessMapped(type, va, store_value, pte);
    return accessSlow(type, va, store_value, pte);
}

std::uint32_t
Cpu::load(VirtAddr va)
{
    return access(AccessType::Load, va, 0);
}

void
Cpu::store(VirtAddr va, std::uint32_t value)
{
    access(AccessType::Store, va, value);
}

std::uint32_t
Cpu::ifetch(VirtAddr va)
{
    return access(AccessType::IFetch, va, 0);
}

void
Cpu::run(const Op *ops, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        access(ops[i].type, ops[i].va, ops[i].value);
}

void
Cpu::loadRange(VirtAddr base, std::uint32_t count,
               std::uint32_t stride_bytes)
{
    for (std::uint32_t i = 0; i < count; ++i)
        access(AccessType::Load,
               base.plus(std::uint64_t(i) * stride_bytes), 0);
}

void
Cpu::storeRange(VirtAddr base, std::uint32_t count,
                std::uint32_t stride_bytes, std::uint32_t seed,
                std::uint32_t seed_step)
{
    for (std::uint32_t i = 0; i < count; ++i)
        access(AccessType::Store,
               base.plus(std::uint64_t(i) * stride_bytes),
               seed + i * seed_step);
}

void
Cpu::ifetchRange(VirtAddr base, std::uint32_t count,
                 std::uint32_t stride_bytes)
{
    for (std::uint32_t i = 0; i < count; ++i)
        access(AccessType::IFetch,
               base.plus(std::uint64_t(i) * stride_bytes), 0);
}

} // namespace vic
