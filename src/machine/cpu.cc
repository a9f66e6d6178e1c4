#include "machine/cpu.hh"

#include <algorithm>

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
    const PhysAddr pa = physOf(pte, va);
    MemoryObserver *obs = mach.observer();

    switch (type) {
      case AccessType::Load: {
          // Coherence is the cache's own job now: a miss issues a bus
          // read that snoops the peers (coherence.hh); a hit is silent
          // exactly as real MESI hardware is.
          const std::uint32_t v = dcacheRef.read(va, pa);
          if (obs)
              obs->cpuLoad(pa, v);
          return v;
      }
      case AccessType::IFetch: {
          const std::uint32_t v = icacheRef.read(va, pa);
          if (obs)
              obs->cpuIFetch(pa, v);
          return v;
      }
      case AccessType::Store: {
          pte->modified = true;
          // Observer sees the store before the cache commits it (the
          // oracle's shadow memory must be current when the written
          // line later leaves the cache). A Shared-line hit leaves
          // write()'s inline path for the one that broadcasts the
          // upgrade.
          if (obs)
              obs->cpuStore(pa, store_value);
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
Cpu::lineRun(AccessType type, Cache &cache, VirtAddr va, std::uint32_t n,
             std::uint32_t stride_bytes, std::uint32_t value,
             std::uint32_t value_step)
{
    const PhysAddr pa =
        physOf(tlbRef.repeatHit(SpaceVa(currentSpace, va), n), va);
    const std::uint32_t first = static_cast<std::uint32_t>(
        (pa.value & (cache.geometry().lineBytes() - 1)) >> 2);
    const std::uint32_t step = stride_bytes >> 2;
    MemoryObserver *obs = mach.observer();

    if (type == AccessType::Store) {
        std::uint32_t *words = cache.writeRun(va, pa, n);
        for (std::uint32_t k = 1; k <= n; ++k) {
            const std::uint32_t v = value + k * value_step;
            if (obs)
                obs->cpuStore(pa.plus(std::uint64_t(k) * stride_bytes),
                              v);
            words[first + k * step] = v;
        }
        return;
    }
    const std::uint32_t *words = cache.readRun(va, pa, n);
    if (obs == nullptr)
        return;
    for (std::uint32_t k = 1; k <= n; ++k) {
        const PhysAddr word_pa = pa.plus(std::uint64_t(k) * stride_bytes);
        if (type == AccessType::Load)
            obs->cpuLoad(word_pa, words[first + k * step]);
        else
            obs->cpuIFetch(word_pa, words[first + k * step]);
    }
}

void
Cpu::accessRange(AccessType type, VirtAddr base, std::uint32_t count,
                 std::uint32_t stride_bytes, std::uint32_t seed,
                 std::uint32_t seed_step)
{
    vic_assert(stride_bytes % 4 == 0,
               "CPU range stride %u is not a whole number of words",
               stride_bytes);
    Cache &cache = type == AccessType::IFetch ? icacheRef : dcacheRef;
    const std::uint32_t line = cache.geometry().lineBytes();
    // A write-through store writes memory on every word.
    const bool runs =
        stride_bytes != 0 && stride_bytes < line &&
        (type != AccessType::Store ||
         cache.writePolicy() == WritePolicy::WriteBack);

    for (std::uint32_t i = 0; i < count;) {
        const VirtAddr va = base.plus(std::uint64_t(i) * stride_bytes);
        const std::uint32_t value = seed + i * seed_step;
        access(type, va, value);
        ++i;
        if (!runs)
            continue;
        // The words after va that lie in its line (byte offsets up to
        // line - 1) hit the line access() just left present.
        const std::uint32_t off =
            static_cast<std::uint32_t>(va.value) & (line - 1);
        const std::uint32_t n =
            std::min(count - i, (line - 1 - off) / stride_bytes);
        if (n == 0)
            continue;
        lineRun(type, cache, va, n, stride_bytes, value, seed_step);
        i += n;
    }
}

bool
Cpu::copyRun(VirtAddr dst, VirtAddr src, std::uint32_t n)
{
    const auto [dst_pte, src_pte] = tlbRef.copyPair(
        SpaceVa(currentSpace, dst), SpaceVa(currentSpace, src));
    if (dst_pte == nullptr ||
        !protPermits(src_pte->prot, AccessType::Load) ||
        !protPermits(dst_pte->prot, AccessType::Store))
        return false;
    const PhysAddr dst_pa = physOf(dst_pte, dst);
    const PhysAddr src_pa = physOf(src_pte, src);
    const std::uint32_t *words =
        dcacheRef.copyRun(dst, dst_pa, src, src_pa, n);
    if (words == nullptr)
        return false;
    tlbRef.repeatPair(n);
    src_pte->referenced = true;
    dst_pte->referenced = true;
    dst_pte->modified = true;
    if (MemoryObserver *obs = mach.observer()) {
        for (std::uint32_t k = 1; k <= n; ++k) {
            obs->cpuLoad(src_pa.plus(4 * k), words[k]);
            obs->cpuStore(dst_pa.plus(4 * k), words[k]);
        }
    }
    return true;
}

void
Cpu::copyRange(VirtAddr dst, VirtAddr src, std::uint32_t words)
{
    const std::uint32_t mask = dcacheRef.geometry().lineBytes() - 1;
    for (std::uint32_t i = 0; i < words;) {
        const VirtAddr s = src.plus(4 * std::uint64_t(i));
        const VirtAddr d = dst.plus(4 * std::uint64_t(i));
        store(d, load(s));
        ++i;
        // The pairs after (d, s) that keep both words in their lines;
        // if no run takes them, they go word by word.
        const std::uint32_t s_off = static_cast<std::uint32_t>(s.value);
        const std::uint32_t d_off = static_cast<std::uint32_t>(d.value);
        const std::uint32_t n =
            std::min({words - i, (mask - (s_off & mask)) / 4,
                      (mask - (d_off & mask)) / 4});
        if (n != 0 && !copyRun(d, s, n)) {
            for (std::uint32_t k = 1; k <= n; ++k)
                store(d.plus(4 * k), load(s.plus(4 * k)));
        }
        i += n;
    }
}

void
Cpu::loadRange(VirtAddr base, std::uint32_t count,
               std::uint32_t stride_bytes)
{
    accessRange(AccessType::Load, base, count, stride_bytes, 0, 0);
}

void
Cpu::storeRange(VirtAddr base, std::uint32_t count,
                std::uint32_t stride_bytes, std::uint32_t seed,
                std::uint32_t seed_step)
{
    accessRange(AccessType::Store, base, count, stride_bytes, seed,
                seed_step);
}

void
Cpu::ifetchRange(VirtAddr base, std::uint32_t count,
                 std::uint32_t stride_bytes)
{
    accessRange(AccessType::IFetch, base, count, stride_bytes, 0, 0);
}

} // namespace vic
