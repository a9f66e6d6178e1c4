/**
 * @file
 * Umbrella header: the whole public API of the vicache library.
 *
 * Downstream users who just want "the paper's system" can include this
 * one header and link against the `vic` CMake target:
 *
 *   #include <vic.hh>
 *
 *   vic::Machine machine{vic::MachineParams::hp720()};
 *   vic::Kernel kernel(machine, vic::PolicyConfig::configF());
 *
 * Individual module headers remain includable on their own for finer
 * dependency control.
 */

#ifndef VIC_VIC_HH
#define VIC_VIC_HH

// Support library
#include "common/arena.hh"
#include "common/bitvector.hh"
#include "common/cycle_clock.hh"
#include "common/event_log.hh"
#include "common/logging.hh"
#include "common/observer.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

// Machine substrate
#include "cache/cache.hh"
#include "cache/cache_geometry.hh"
#include "dma/disk.hh"
#include "dma/dma_engine.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "machine/machine_params.hh"
#include "mem/free_page_list.hh"
#include "mem/physical_memory.hh"
#include "mmu/fault.hh"
#include "mmu/page_table.hh"
#include "tlb/tlb.hh"

// The paper's contribution
#include "core/cache_page_state.hh"
#include "core/classic_pmap.hh"
#include "core/lazy_pmap.hh"
#include "core/phys_page_info.hh"
#include "core/pmap.hh"
#include "core/policy_config.hh"
#include "core/spec_executor.hh"

// Validation
#include "oracle/consistency_oracle.hh"

// Operating system layer
#include "os/address_space.hh"
#include "os/buffer_cache.hh"
#include "os/file_system.hh"
#include "os/kernel.hh"
#include "os/os_params.hh"
#include "os/page_preparer.hh"
#include "os/pageout.hh"
#include "os/vm_object.hh"

// Workloads and the evaluation runner
#include "workload/afs_bench.hh"
#include "workload/contrived_alias.hh"
#include "workload/kernel_build.hh"
#include "workload/db_server.hh"
#include "workload/latex_bench.hh"
#include "workload/multiprog.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

#endif // VIC_VIC_HH
