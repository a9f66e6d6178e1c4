/**
 * @file
 * Memory access fault descriptors.
 *
 * The consistency algorithm works by denying access (via page
 * protections) to pages whose cache state would make the access unsafe,
 * and fixing things up in the fault handler (Section 4). These types
 * describe the trap the simulated MMU delivers to the operating-system
 * layer.
 */

#ifndef VIC_MMU_FAULT_HH
#define VIC_MMU_FAULT_HH

#include <cstdint>

#include "common/types.hh"

namespace vic
{

/** Kind of access that faulted. */
enum class AccessType : std::uint8_t
{
    Load,
    Store,
    IFetch,
};

/** Human-readable name of an AccessType. */
constexpr const char *
accessTypeName(AccessType t)
{
    switch (t) {
      case AccessType::Load: return "load";
      case AccessType::Store: return "store";
      case AccessType::IFetch: return "ifetch";
    }
    return "?";
}

/** @return true iff @p t writes to memory. */
constexpr bool
isWrite(AccessType t)
{
    return t == AccessType::Store;
}

/** @return true iff @p prot permits an access of type @p t. */
constexpr bool
protPermits(Protection prot, AccessType t)
{
    switch (t) {
      case AccessType::Load: return prot.read;
      case AccessType::Store: return prot.write;
      case AccessType::IFetch: return prot.execute;
    }
    return false;
}

/** Which cache an access type goes through. */
constexpr CacheKind
cacheKindOf(AccessType t)
{
    return t == AccessType::IFetch ? CacheKind::Instruction
                                   : CacheKind::Data;
}

/** Why an access trapped. */
enum class FaultType : std::uint8_t
{
    None,
    Unmapped,    ///< no page-table entry for the page
    Protection,  ///< entry exists but denies this access
};

struct Fault
{
    FaultType type = FaultType::None;
    SpaceVa address;          ///< faulting (space, va)
    AccessType access = AccessType::Load;
};

} // namespace vic

#endif // VIC_MMU_FAULT_HH
