#include "oracle/consistency_oracle.hh"

#include "common/logging.hh"

namespace vic
{

ConsistencyOracle::ConsistencyOracle(std::uint64_t memory_bytes)
    : words(memory_bytes / 4),
      shadow(std::make_unique_for_overwrite<std::uint32_t[]>(words)),
      defined(words, false)
{
}

void
ConsistencyOracle::badAddress(PhysAddr pa) const
{
    if (pa.value % 4 != 0)
        vic_panic("unaligned oracle access %llx",
                  (unsigned long long)pa.value);
    vic_panic("oracle address %llx out of range",
              (unsigned long long)pa.value);
}

void
ConsistencyOracle::violation(PhysAddr pa, std::uint32_t expected,
                             std::uint32_t observed, const char *kind)
{
    ++totalViolations;
    const Violation v{pa, expected, observed, kind};
    if (faults.size() < maxRecorded)
        faults.push_back(v);
    if (violationHook)
        violationHook(v);
}

void
ConsistencyOracle::reset()
{
    std::fill(defined.begin(), defined.end(), false);
    faults.clear();
    totalViolations = 0;
    checked = 0;
}

} // namespace vic
