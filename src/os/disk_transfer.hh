/**
 * @file
 * The steps of a guarded disk transfer, one table per kind of
 * transfer.
 *
 * The paper's DMA rule is an ordering: flush a frame before a device
 * reads it, purge it before a device writes it, and keep the CPU off
 * the frame until the transfer ends. Each table below is that order
 * for one kind of transfer. Kernel::diskTransfer runs a table step by
 * step, and the interleaving checker's guarded scenarios
 * (src/mc/scenario.cc) build their pager threads from the same
 * tables, one operation per step, so the order the checker explores
 * is the order the kernel runs.
 *
 * The guard comes first. Here it wires the frame, which keeps the
 * pageout daemon away; the simulator is sequential, so no CPU access
 * falls between the steps. A concurrent kernel must also hold off
 * every CPU access to a wired frame until the release: a store that
 * lands between the flush and the device's read is a lost write-back.
 * The checker's busy bit models exactly that.
 *
 * The tables have a header of their own because the model checker
 * compiles under the ordered-container guard, and kernel.hh and
 * pageout.hh include the unordered containers.
 */

#ifndef VIC_OS_DISK_TRANSFER_HH
#define VIC_OS_DISK_TRANSFER_HH

#include <array>
#include <cstdint>

namespace vic
{

enum class TransferStep : std::uint8_t
{
    Guard,        ///< wire the frame (the checker: take the busy bit)
    Unmap,        ///< remove every translation of the frame
    Flush,        ///< the pmap's DMA-read step: write dirty lines back
    Purge,        ///< the pmap's DMA-write step: drop stale lines
    DeviceReads,  ///< start the device reading the frame (to disk)
    DeviceWrites, ///< start the device writing the frame (from disk)
    Wait,         ///< drain the transfer's beats
    Release,      ///< unwire the frame (the checker: clear the busy bit)
};

/** Buffer write-back: the device reads the frame. */
inline constexpr std::array kWriteBack{
    TransferStep::Guard, TransferStep::Flush, TransferStep::DeviceReads,
    TransferStep::Wait, TransferStep::Release};

/** Buffer fill and swap-in: the device writes the frame. */
inline constexpr std::array kFill{
    TransferStep::Guard, TransferStep::Purge, TransferStep::DeviceWrites,
    TransferStep::Wait, TransferStep::Release};

/** Swap-out of an anonymous page: the write-back of a frame whose
 *  translations are all removed first, under the guard. Unmapped
 *  before the guard, an access in between maps the frame again on
 *  demand; the checker counts a pager's release of a frame that a
 *  slot it unmapped maps again as a violation (docs/VERIFICATION.md,
 *  "Guarded orderings are clean"). */
inline constexpr std::array kSwapOut{
    TransferStep::Guard, TransferStep::Unmap, TransferStep::Flush,
    TransferStep::DeviceReads, TransferStep::Wait,
    TransferStep::Release};

} // namespace vic

#endif // VIC_OS_DISK_TRANSFER_HH
