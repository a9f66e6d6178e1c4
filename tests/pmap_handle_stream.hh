/**
 * @file
 * A seeded stream of pmap work that checks the pmap's page-table entry
 * handles, shared by lazy_pmap_test and classic_pmap_test.
 *
 * Each mapping a pmap lists keeps the PageTableEntry * that
 * PageTable::enter returned, and reads modified bits and sets
 * protections through it. The stream runs over six frames and 24
 * virtual pages in two spaces (colours 0-3, three replicas each, so
 * aligned and unaligned aliases): enter, remove, protect, CPU
 * accesses that fault, DMA read and write, frame free and reuse. The
 * classic pmap breaks mappings on its own, so the fault handler
 * re-enters them as the OS would. After every op each listed mapping's
 * handle must be the entry the page table finds, and the mapping one
 * the stream made for that frame.
 */

#ifndef VIC_TESTS_PMAP_HANDLE_STREAM_HH
#define VIC_TESTS_PMAP_HANDLE_STREAM_HH

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/random.hh"
#include "core/pmap.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"

namespace vic
{

/** Run the stream on @p pmap (built on @p machine) from @p seed;
 *  @p listed gives a frame's listed mappings. */
inline void
runHandleStream(
    Machine &machine, Pmap &pmap, std::uint64_t seed,
    const std::function<std::span<const VaMapping>(FrameId)> &listed)
{
    struct Live
    {
        FrameId frame;
        Protection vmProt;
    };
    std::map<SpaceVa, Live> live;

    Cpu cpu(machine);
    cpu.setFaultHandler([&](const Fault &f) {
        if (pmap.resolveConsistencyFault(f.address, f.access))
            return true;
        const SpaceVa page(f.address.space,
                           machine.pageTable().pageBase(f.address.va));
        const auto l = live.find(page);
        if (f.type != FaultType::Unmapped || l == live.end())
            return false;
        pmap.enter(page, l->second.frame, l->second.vmProt, f.access, {});
        return true;
    });

    const std::uint32_t colours = machine.dcache().geometry().numColours();
    std::vector<SpaceVa> vas;
    for (SpaceId s = 1; s <= 2; ++s)
        for (std::uint64_t replica = 0; replica < 3; ++replica)
            for (std::uint64_t c = 0; c < 4; ++c)
                vas.push_back(SpaceVa(
                    s, VirtAddr((replica * colours + c) *
                                machine.pageBytes())));
    const std::vector<FrameId> frames = {20, 21, 22, 23, 24, 25};
    const Protection prots[] = {Protection::all(), Protection::readWrite(),
                                Protection::readOnly(),
                                Protection::readExecute()};
    std::set<FrameId> freed;
    int aligned = 0, unaligned = 0, frees = 0, reuses = 0;

    Random rng(seed);
    for (int step = 0; step < 3000; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const FrameId frame = frames[rng.below(frames.size())];
        auto any_live = [&] {
            auto l = live.begin();
            std::advance(l, rng.below(live.size()));
            return l;
        };
        switch (rng.below(10)) {
          case 0:
          case 1: {
            const SpaceVa va = vas[rng.below(vas.size())];
            if (live.count(va))
                break;
            const Protection prot = prots[rng.below(4)];
            for (const auto &[other, l] : live) {
                if (l.frame == frame)
                    ++(pmap.dColourOf(other.va) == pmap.dColourOf(va.va)
                           ? aligned
                           : unaligned);
            }
            reuses += freed.erase(frame) != 0;
            const AccessType access =
                prot.write && rng.chance(1, 2)     ? AccessType::Store
                : prot.execute && rng.chance(1, 2) ? AccessType::IFetch
                                                   : AccessType::Load;
            pmap.enter(va, frame, prot, access, {});
            live[va] = Live{frame, prot};
            break;
          }
          case 2:
            if (!live.empty()) {
                const auto l = any_live();
                pmap.remove(l->first);
                live.erase(l);
            }
            break;
          case 3:
            if (!live.empty()) {
                // Only a mapping the pmap has not broken has a
                // translation to protect; a broken one takes the new
                // protection when the fault handler re-enters it.
                const auto l = any_live();
                l->second.vmProt = prots[rng.below(4)];
                if (machine.pageTable().lookup(l->first) != nullptr)
                    pmap.protect(l->first, l->second.vmProt);
            }
            break;
          case 4:
          case 5:
          case 6:
            if (!live.empty()) {
                const auto l = any_live();
                const Protection p = l->second.vmProt;
                const std::uint64_t words = machine.pageBytes() / 4;
                const VirtAddr va = l->first.va.plus(4 * rng.below(words));
                cpu.setSpace(l->first.space);
                const std::uint64_t kind = rng.below(3);
                if (kind == 1 && p.write)
                    cpu.store(va, static_cast<std::uint32_t>(step));
                else if (kind == 2 && p.execute)
                    cpu.ifetch(va);
                else
                    cpu.load(va);
            }
            break;
          case 7:
            pmap.dmaRead(frame, true);
            break;
          case 8:
            pmap.dmaWrite(frame);
            break;
          case 9:
            for (auto l = live.begin(); l != live.end();) {
                if (l->second.frame != frame) {
                    ++l;
                    continue;
                }
                pmap.remove(l->first);
                l = live.erase(l);
            }
            pmap.frameFreed(frame);
            frees += freed.insert(frame).second;
            break;
        }

        for (FrameId f : frames) {
            for (const VaMapping &m : listed(f)) {
                ASSERT_NE(m.pte, nullptr);
                ASSERT_EQ(m.pte, machine.pageTable().lookup(m.va));
                ASSERT_EQ(live.at(m.va).frame, f);
            }
        }
    }
    EXPECT_GT(cpu.faultCount(), 100u);
    EXPECT_GT(aligned, 50);
    EXPECT_GT(unaligned, 50);
    EXPECT_GT(frees, 50);
    EXPECT_GT(reuses, 50);
}

} // namespace vic

#endif // VIC_TESTS_PMAP_HANDLE_STREAM_HH
