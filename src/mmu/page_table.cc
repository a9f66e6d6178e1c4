#include "mmu/page_table.hh"

#include <bit>

#include "common/logging.hh"

namespace vic
{

PageTable::PageTable(std::uint32_t page_bytes)
    : pageSize(page_bytes), buckets(64, nullptr)
{
    vic_assert(std::has_single_bit(page_bytes),
               "page size %u not a power of two", page_bytes);
}

PageTable::Node *
PageTable::findNode(SpaceVa canon, std::uint64_t mixed) const
{
    for (Node *n = buckets[bucketOf(mixed)]; n != nullptr; n = n->next) {
        if (n->key == canon)
            return n;
    }
    return nullptr;
}

void
PageTable::grow()
{
    // Double the bucket array and relink every node. Nodes themselves
    // never move, so live PageTableEntry pointers survive the rehash.
    std::vector<Node *> old = std::move(buckets);
    buckets.assign(old.size() * 2, nullptr);
    for (Node *n : old) {
        while (n != nullptr) {
            Node *next = n->next;
            Node *&head = buckets[bucketOf(mix(n->key))];
            n->next = head;
            head = n;
            n = next;
        }
    }
}

PageTableEntry *
PageTable::enter(SpaceVa key, FrameId frame, Protection prot)
{
    const SpaceVa canon = canonical(key);
    const std::uint64_t mixed = mix(canon);
    if (Node *n = findNode(canon, mixed)) {
        n->pte = PageTableEntry{frame, prot, false, false};
        return &n->pte;
    }
    if (live + 1 > buckets.size())
        grow();
    Node *n = nodes.alloc();
    n->key = canon;
    n->pte = PageTableEntry{frame, prot, false, false};
    Node *&head = buckets[bucketOf(mixed)];
    n->next = head;
    head = n;
    ++live;
    return &n->pte;
}

bool
PageTable::remove(SpaceVa key)
{
    const SpaceVa canon = canonical(key);
    Node **link = &buckets[bucketOf(mix(canon))];
    while (*link != nullptr) {
        Node *n = *link;
        if (n->key == canon) {
            const bool modified = n->pte.modified;
            *link = n->next;
            nodes.release(n);
            --live;
            return modified;
        }
        link = &n->next;
    }
    return false;
}

void
PageTable::setProtection(SpaceVa key, Protection prot)
{
    Node *n = findNode(canonical(key));
    vic_assert(n != nullptr,
               "setProtection on unmapped page space=%u va=%llx",
               key.space, (unsigned long long)key.va.value);
    n->pte.prot = prot;
}

const PageTableEntry *
PageTable::lookup(SpaceVa key) const
{
    ++walks;
    const Node *n = findNode(canonical(key));
    return n == nullptr ? nullptr : &n->pte;
}

PageTableEntry *
PageTable::lookupMutable(SpaceVa key)
{
    const SpaceVa canon = canonical(key);
    return walk(canon, mix(canon));
}

PageTableEntry *
PageTable::walk(SpaceVa page, std::uint64_t mixed)
{
    ++walks;
    Node *n = findNode(page, mixed);
    return n == nullptr ? nullptr : &n->pte;
}

bool
PageTable::clearModified(SpaceVa key)
{
    Node *n = findNode(canonical(key));
    if (n == nullptr)
        return false;
    const bool was = n->pte.modified;
    n->pte.modified = false;
    return was;
}

} // namespace vic
