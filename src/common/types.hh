/**
 * @file
 * Fundamental strongly-typed value types shared across the simulator.
 *
 * Virtual and physical addresses are distinct wrapper types so that the
 * compiler rejects the classic cache-simulator bug of indexing a
 * virtually indexed cache with a physical address (or tagging it with a
 * virtual one). Both wrap 64 bits whose raw form, `.value`, still
 * carries its kind (AddrBits<VirtTag> or AddrBits<PhysTag>): it reads
 * as a plain integer, but the other wrapper refuses it, so
 * `PhysAddr{va.value}` does not compile while a translation such as
 * `PhysAddr(frame_base + (va.value & mask))` does — arithmetic yields
 * a plain integer. Bits carried through a named raw integer are not
 * caught. Arithmetic helpers are spelled out explicitly rather than
 * via operator overloads so call sites stay greppable.
 */

#ifndef VIC_COMMON_TYPES_HH
#define VIC_COMMON_TYPES_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace vic
{

/** Simulated clock cycles. */
using Cycles = std::uint64_t;

/** Identifier of an address space (a Mach task, or the kernel). */
using SpaceId = std::uint32_t;

/** Identifier of a cache page ("cache colour"): index of the page-sized
 *  region of the cache that a virtual page maps onto. */
using CachePageId = std::uint32_t;

/** Identifier of a physical page frame. */
using FrameId = std::uint64_t;

struct VirtTag;
struct PhysTag;

/** The raw bits of an address of kind @p Kind: reads as a plain
 *  integer, but only the wrapper of the same kind accepts it back. */
template <typename Kind>
struct AddrBits
{
    std::uint64_t bits = 0;

    constexpr auto operator<=>(const AddrBits &) const = default;
    constexpr operator std::uint64_t() const { return bits; }
};

/** A virtual address within some address space. */
struct VirtAddr
{
    AddrBits<VirtTag> value;

    constexpr VirtAddr() = default;
    constexpr explicit VirtAddr(std::uint64_t v) : value{v} {}
    explicit VirtAddr(AddrBits<PhysTag>) = delete;

    constexpr auto operator<=>(const VirtAddr &) const = default;

    /** Byte offset added to this address. */
    constexpr VirtAddr plus(std::uint64_t bytes) const
    { return VirtAddr(value + bytes); }
};

/** A physical (machine) address. */
struct PhysAddr
{
    AddrBits<PhysTag> value;

    constexpr PhysAddr() = default;
    constexpr explicit PhysAddr(std::uint64_t v) : value{v} {}
    explicit PhysAddr(AddrBits<VirtTag>) = delete;

    constexpr auto operator<=>(const PhysAddr &) const = default;

    /** Byte offset added to this address. */
    constexpr PhysAddr plus(std::uint64_t bytes) const
    { return PhysAddr(value + bytes); }
};

/** A (space, virtual address) pair: the globally unique name of a byte
 *  of virtual memory in the hierarchical address-space model. */
struct SpaceVa
{
    SpaceId space = 0;
    VirtAddr va;

    constexpr SpaceVa() = default;
    constexpr SpaceVa(SpaceId s, VirtAddr v) : space(s), va(v) {}

    constexpr auto operator<=>(const SpaceVa &) const = default;
};

/** Memory-system operations, exactly the six events of the paper's
 *  consistency model (Section 3.2). Purge and Flush are the two cache
 *  control operations exported by the hardware. */
enum class MemOp : std::uint8_t
{
    CpuRead,
    CpuWrite,
    DmaRead,   ///< device reads from the memory system (disk write)
    DmaWrite,  ///< device writes into the memory system (disk read)
    Purge,
    Flush,
};

/** Human-readable name of a MemOp. */
const char *memOpName(MemOp op);

/** Which of the two split caches a reference targets. The paper's
 *  implementation keeps independent consistency state per cache because
 *  the hardware does not keep the instruction and data caches coherent
 *  (Section 4.1). */
enum class CacheKind : std::uint8_t
{
    Data,
    Instruction,
};

/** Human-readable name of a CacheKind. */
const char *cacheKindName(CacheKind kind);

/**
 * Page protections that the MMU can enforce; the consistency algorithm
 * drives transitions by downgrading these (final stanza of Figure 1).
 *
 * Execute is separate from read (as on PA-RISC) because the machine
 * has split instruction and data caches whose consistency states are
 * independent: a page may be safe to load (its data-cache page is
 * present) yet unsafe to fetch instructions from (its instruction-
 * cache page is stale), and the protection hardware must be able to
 * trap exactly the unsafe kind of access.
 */
struct Protection
{
    bool read = false;
    bool write = false;
    bool execute = false;

    constexpr bool operator==(const Protection &) const = default;

    static constexpr Protection none() { return {}; }
    static constexpr Protection readOnly() { return {true, false, false}; }
    static constexpr Protection readWrite() { return {true, true, false}; }
    static constexpr Protection readExecute()
    { return {true, false, true}; }
    static constexpr Protection all() { return {true, true, true}; }

    /** The permissions allowed by both this and @p other. */
    constexpr Protection
    intersect(Protection other) const
    {
        return {read && other.read, write && other.write,
                execute && other.execute};
    }

    /** @return true iff no access at all is allowed. */
    constexpr bool isNone() const { return !read && !write && !execute; }
};

/** Short human-readable protection description ("r-x" style). */
std::string protectionName(Protection prot);

} // namespace vic

namespace std
{

template <>
struct hash<vic::VirtAddr>
{
    size_t operator()(const vic::VirtAddr &a) const noexcept
    { return std::hash<std::uint64_t>{}(a.value); }
};

template <>
struct hash<vic::PhysAddr>
{
    size_t operator()(const vic::PhysAddr &a) const noexcept
    { return std::hash<std::uint64_t>{}(a.value); }
};

template <>
struct hash<vic::SpaceVa>
{
    size_t
    operator()(const vic::SpaceVa &s) const noexcept
    {
        return std::hash<std::uint64_t>{}(
            (std::uint64_t(s.space) << 48) ^ s.va.value);
    }
};

} // namespace std

#endif // VIC_COMMON_TYPES_HH
