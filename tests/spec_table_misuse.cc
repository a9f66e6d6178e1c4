/**
 * @file
 * Compile-time half of spec-table coverage (the run-time half is
 * spec_model_test, which evaluates every cell of the compiled tables).
 *
 * The protocol tables — targetTransition/otherTransition and the MESI
 * local and snoop tables — are switches over the state enum with no
 * default:, so under -Werror=switch a dropped case breaks the build.
 * Built plain, this file is the control: Table 2's CPU-write target
 * column, in the same shape, compiles. The WILL_FAIL ctest entry in
 * tests/CMakeLists.txt rebuilds it with VIC_SPEC_TABLE_DROPPED_CASE,
 * which deletes the (Stale, CpuWrite) case, and the compiler must
 * reject it.
 */

#include "core/cache_page_state.hh"

namespace vic
{

SpecTransition
cpuWriteTarget(CachePageState current)
{
    using S = CachePageState;
    switch (current) {
      case S::Empty: return {S::Dirty};
      case S::Present: return {S::Dirty};
      case S::Dirty: return {S::Dirty};
#if !defined(VIC_SPEC_TABLE_DROPPED_CASE)
      case S::Stale: return {S::Dirty, RequiredOp::Purge};
#endif
    }
    return {S::Empty};
}

} // namespace vic
