/**
 * @file
 * Compile-time half of the DMA drain contract (the run-time half is
 * dma_test's death tests).
 *
 * Built plain, this file is the control: a start whose ticket is
 * drained compiles. The WILL_FAIL ctest entries in tests/CMakeLists.txt
 * rebuild it with one defect macro, and each must be rejected by the
 * compiler:
 *
 *  - VIC_DMA_TICKET_DISCARD drops a returned ticket on the floor —
 *    an error under -Werror=unused-result, since DmaTicket is
 *    [[nodiscard]];
 *  - VIC_DMA_TICKET_COPY copies a ticket, which would give one
 *    transfer two owners — DmaTicket's copy constructor is deleted.
 */

#include <cstdint>
#include <utility>

#include "dma/dma_engine.hh"

namespace vic
{

void
drainOnePage(DmaEngine &dma, const std::uint32_t *words)
{
    DmaTicket ticket = dma.startWrite(PhysAddr(0), words, 1024);
#if defined(VIC_DMA_TICKET_DISCARD)
    dma.startWrite(PhysAddr(0x1000), words, 1024);
#elif defined(VIC_DMA_TICKET_COPY)
    DmaTicket copy = ticket;
    dma.drain(std::move(copy));
#endif
    dma.drain(std::move(ticket));
}

} // namespace vic
