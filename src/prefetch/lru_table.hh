/**
 * @file
 * Fully-associative LRU table: the layout of the prefetchers' stream
 * and region tables (Stride's reference prediction table, the
 * Multistride PC table, AMPM's zone maps, the Pangloss page cache and
 * SMS's accumulation and filter tables).
 *
 * Entries live in an unordered_map. The recency list is threaded
 * through the map's own nodes, whose addresses survive rehashing:
 * head = most recently used, tail = the next victim. find() and
 * insert() move an entry to the head; insert() into a full table
 * evicts the tail.
 */

#ifndef CBWS_PREFETCH_LRU_TABLE_HH
#define CBWS_PREFETCH_LRU_TABLE_HH

#include <cstddef>
#include <unordered_map>
#include <utility>

#include "base/logging.hh"

namespace cbws
{

template <typename Key, typename Entry>
class LruTable
{
  public:
    /** A table of @p capacity entries; a capacity of 0 is fatal, with
     *  @p param (the `--pf-opt` key that sized it) in the message. */
    LruTable(std::size_t capacity, const char *param)
        : capacity_(capacity)
    {
        fatal_if(capacity == 0, "%s must be at least 1", param);
    }

    LruTable(const LruTable &) = delete;
    LruTable &operator=(const LruTable &) = delete;

    /** The entry for @p key, now the most recently used; nullptr when
     *  absent. */
    Entry *
    find(const Key &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        Slot &slot = it->second;
        unlink(slot);
        pushFront(slot);
        return &slot.entry;
    }

    /**
     * Add @p key, which must be absent, as the most recently used
     * entry. A full table first hands its least recently used entry
     * to @p on_evict, then erases it.
     */
    template <typename OnEvict>
    Entry &
    insert(const Key &key, Entry entry, OnEvict &&on_evict)
    {
        if (map_.size() >= capacity_) {
            Slot &victim = *tail_;
            on_evict(std::as_const(victim.entry));
            unlink(victim);
            const Key victim_key = victim.key;
            map_.erase(victim_key);
        }
        Slot &slot = map_.emplace(key, Slot{std::move(entry), key})
                         .first->second;
        pushFront(slot);
        return slot.entry;
    }

    Entry &
    insert(const Key &key, Entry entry)
    {
        return insert(key, std::move(entry), [](const Entry &) {});
    }

    /** Drop @p key's entry, if present. */
    void
    erase(const Key &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return;
        unlink(it->second);
        map_.erase(it);
    }

    std::size_t size() const { return map_.size(); }

  private:
    struct Slot
    {
        Entry entry;
        Key key;
        Slot *newer = nullptr;
        Slot *older = nullptr;
    };

    void
    unlink(Slot &slot)
    {
        (slot.newer ? slot.newer->older : head_) = slot.older;
        (slot.older ? slot.older->newer : tail_) = slot.newer;
        slot.newer = slot.older = nullptr;
    }

    void
    pushFront(Slot &slot)
    {
        slot.older = head_;
        (head_ ? head_->newer : tail_) = &slot;
        head_ = &slot;
    }

    std::size_t capacity_;
    std::unordered_map<Key, Slot> map_;
    Slot *head_ = nullptr; ///< most recently used
    Slot *tail_ = nullptr; ///< least recently used
};

} // namespace cbws

#endif // CBWS_PREFETCH_LRU_TABLE_HH
