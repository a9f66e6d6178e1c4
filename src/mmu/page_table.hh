/**
 * @file
 * Simulated page table.
 *
 * Maps (space, virtual page) to (physical frame, protection, referenced
 * / modified bits). This is the hardware-facing translation structure
 * that the pmap layer programs; the paper's second hardware requirement
 * — "reads and writes to individual virtual memory pages can be caught
 * by the operating system kernel" — is met by the protection field,
 * which the CacheControl algorithm downgrades to intercept accesses
 * that need consistency state transitions.
 *
 * The hardware-maintained modified bit supports the paper's
 * optimisation of setting P[p].cache_dirty from the page-modified bit
 * when exactly one cache page is mapped (Section 4.1), avoiding a
 * write-protection fault per page.
 *
 * Storage is a separate-chaining hash over Arena-allocated nodes
 * rather than a node-based standard container: enter/remove recycle
 * arena slots instead of hitting the host allocator, and a translate
 * walk chases chains through chunked contiguous memory. Node pointers
 * are stable for the table's lifetime — rehashing relinks chains but
 * never moves a node — which preserves the contract the TLB and the
 * pmaps' mapping lists rely on: PageTableEntry handles (cached by a
 * TLB entry, returned by enter() to the pmap) stay valid until an
 * explicit remove, and enter() on an already-mapped page assigns in
 * place. The bucket index is derived from a fixed multiplicative mix
 * of the key (never std::hash, never pointer values), so chain order
 * — and therefore behaviour — is identical on every host.
 */

#ifndef VIC_MMU_PAGE_TABLE_HH
#define VIC_MMU_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"

namespace vic
{

struct PageTableEntry
{
    FrameId frame = 0;
    Protection prot;
    bool referenced = false;
    bool modified = false;
};

class PageTable
{
  public:
    /** @param page_bytes virtual page size in bytes (power of two). */
    explicit PageTable(std::uint32_t page_bytes);

    std::uint32_t pageBytes() const { return pageSize; }

    /** Truncate @p va to its page base. */
    VirtAddr pageBase(VirtAddr va) const
    { return VirtAddr(va.value & ~std::uint64_t(pageSize - 1)); }

    /** Install (or replace) the translation for the page containing
     *  @p key.va. Replacement assigns in place — the entry's address
     *  does not change. @return the entry's handle, valid until this
     *  page is removed. */
    PageTableEntry *enter(SpaceVa key, FrameId frame, Protection prot);

    /** Remove the translation; no-op if absent.
     *  @return the removed entry's modified bit. */
    bool remove(SpaceVa key);

    /** Change the protection of an existing entry. */
    void setProtection(SpaceVa key, Protection prot);

    /** Look up the entry for the page containing @p key.va.
     *  @return nullptr if unmapped. */
    const PageTableEntry *lookup(SpaceVa key) const;

    /** Mutable lookup for reference/modified bit updates. */
    PageTableEntry *lookupMutable(SpaceVa key);

    /** lookupMutable() of page-aligned @p page for a caller that has
     *  already computed @p mixed = mix(@p page): one walk, no second
     *  mix (a TLB refill probes its own index with the same value). */
    PageTableEntry *walk(SpaceVa page, std::uint64_t mixed);

    /** Clear the modified bit; @return its previous value. */
    bool clearModified(SpaceVa key);

    /** Number of live entries (for tests). */
    std::size_t size() const { return live; }

    /**
     * Total page-table walks served (lookup + lookupMutable calls) —
     * hardware refill walks on TLB miss plus the OS's software walks.
     * Tests use the delta across an access to prove the pipeline does
     * at most one walk per access (and zero on a TLB hit). Deliberately
     * a plain member rather than a StatSet counter: StatSet snapshots
     * reach the JSON artifacts, and the artifact byte-equivalence
     * contract predates this counter.
     */
    std::uint64_t walkCount() const { return walks; }

    /** Fixed multiplicative mix (splitmix64 finaliser) of a canonical
     *  (page-aligned) key — host-independent by construction. The
     *  TLB's page -> slot index hashes with it too. */
    static std::uint64_t
    mix(SpaceVa key)
    {
        std::uint64_t x =
            (std::uint64_t(key.space) << 48) ^ key.va.value;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

  private:
    struct Node
    {
        SpaceVa key;
        PageTableEntry pte;
        Node *next = nullptr;
    };

    std::uint32_t pageSize;
    std::size_t live = 0;
    std::vector<Node *> buckets;
    Arena<Node> nodes;
    mutable std::uint64_t walks = 0;

    SpaceVa canonical(SpaceVa key) const
    { return SpaceVa(key.space, pageBase(key.va)); }

    std::size_t bucketOf(std::uint64_t mixed) const
    { return mixed & (buckets.size() - 1); }

    Node *findNode(SpaceVa canon, std::uint64_t mixed) const;
    Node *findNode(SpaceVa canon) const
    { return findNode(canon, mix(canon)); }
    void grow();
};

} // namespace vic

#endif // VIC_MMU_PAGE_TABLE_HH
