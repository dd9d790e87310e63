/**
 * @file
 * lp::index -- an ordered in-memory index over the KV store's keys.
 *
 * The store's persistent layout is a flat open-addressing table plus
 * per-shard journals: perfect for point ops, useless for range
 * queries. OrderedIndex adds ordering the ListDB way: the
 * LP-checksummed journal stays the persistent truth, and the ordered
 * structure is pure DRAM, rebuilt from the recovered table after
 * crash recovery. Nothing here is ever flushed; crash consistency
 * comes entirely from the store's checksums, never from this index.
 *
 * Structure: a classic skiplist (p = 1/4, capped height) holding
 * each live key with its LATEST value -- the DRAM view, staged
 * not-yet-folded deltas included -- while the consistent view stays
 * in persistent memory (the HUNTER split). The store mirrors every
 * mutation it stages into the index, so a scan reads values straight
 * off the cursor and sees exactly what point reads see, byte for
 * byte, without resolving each key through the table.
 *
 * Concurrency: single writer, multiple readers, matching the store's
 * single-writer-per-shard contract (src/kernels/env.hh).
 *
 *  - The one owning thread calls insert/erase/clear/reclaim.
 *  - Any thread may traverse concurrently (contains, lowerBound,
 *    Cursor::advance, Cursor::value). The writer publishes nodes
 *    with release stores on the next-pointers; readers traverse
 *    with acquire loads, so a reached node's key, value and lower
 *    links are always visible. An update of a present key's value
 *    is a release store the cursor reads with an acquire load.
 *  - erase() unlinks a node but NEVER frees it: a concurrent reader
 *    may still be standing on it (its next-pointers keep pointing
 *    into the live list, so the reader simply walks back in).
 *    Unlinked nodes go to a limbo list and are freed only by
 *    reclaim(), which the owner must call at quiesce points -- when
 *    it knows no foreign reader is mid-traversal. KvStore calls it
 *    from checkpoint() and recover(); the destructor reclaims too.
 *
 * Memory accounting: entries() and residentBytes() are relaxed
 * atomics any thread may read (the server's acceptor exports them
 * via METRICS). residentBytes() counts the head, every live
 * node, and every limbo node -- unreclaimed garbage is still
 * resident and is reported as such. Nodes carry a fixed maxHeight
 * pointer array (no flexible-array tricks, so ASan/UBSan see plain
 * well-defined objects); the constant is sized for ~16M entries at
 * p = 1/4.
 */

#ifndef LP_INDEX_ORDERED_INDEX_HH
#define LP_INDEX_ORDERED_INDEX_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lp::index
{

/** Skiplist levels: 4^12 expected entries at the height cap. */
inline constexpr int orderedIndexMaxHeight = 12;

/**
 * One skiplist node. Namespace scope (not nested) so the Cursor's
 * hot-path advance() stays inline in this header while allocation
 * and list surgery live in the .cc.
 */
struct OrderedIndexNode
{
    std::uint64_t key;
    std::atomic<std::uint64_t> value;  ///< latest staged value
    int height;
    OrderedIndexNode *limbo;  ///< limbo-list link (writer-only)
    std::atomic<OrderedIndexNode *> next[orderedIndexMaxHeight];
};

class OrderedIndex
{
  public:
    static constexpr int maxHeight = orderedIndexMaxHeight;

    OrderedIndex();
    ~OrderedIndex();

    OrderedIndex(const OrderedIndex &) = delete;
    OrderedIndex &operator=(const OrderedIndex &) = delete;

    /// @name Writer API (owning thread only)
    /// @{

    /** Add @p key with @p value, or update the value of a present
     *  key. */
    void insert(std::uint64_t key, std::uint64_t value);

    /** Unlink @p key into the limbo list; a no-op if absent. */
    void erase(std::uint64_t key);

    /** Free the limbo list. Quiesce point only: no foreign reader
     *  may be traversing (see the file comment). */
    void reclaim();

    /** Drop everything (live and limbo). Quiesce point only. */
    void clear();
    /// @}

    /// @name Reader API (any thread, concurrent with the writer)
    /// @{

    /**
     * A forward iterator over the bottom level. Obtained from
     * lowerBound()/first(); remains safe to advance while the
     * writer inserts and erases (an erased node under the cursor
     * still links back into the live list).
     */
    class Cursor
    {
      public:
        bool valid() const { return node_ != nullptr; }
        std::uint64_t key() const { return node_->key; }

        std::uint64_t
        value() const
        {
            return node_->value.load(std::memory_order_acquire);
        }

        void
        advance()
        {
            node_ = node_->next[0].load(std::memory_order_acquire);
        }

      private:
        friend class OrderedIndex;
        explicit Cursor(const OrderedIndexNode *n) : node_(n) {}
        const OrderedIndexNode *node_;
    };

    bool contains(std::uint64_t key) const;

    /** Cursor on the first key >= @p key (invalid if none). */
    Cursor lowerBound(std::uint64_t key) const;

    /** Cursor on the smallest key (invalid if empty). */
    Cursor first() const;

    /** Live key count (relaxed; any thread). */
    std::uint64_t
    entries() const
    {
        return entries_.load(std::memory_order_relaxed);
    }

    /** Bytes held: head + live nodes + limbo nodes (relaxed). */
    std::uint64_t
    residentBytes() const
    {
        return residentBytes_.load(std::memory_order_relaxed);
    }

    /** Unlinked-but-unfreed node count (relaxed; any thread). */
    std::uint64_t
    limboNodes() const
    {
        return limboNodes_.load(std::memory_order_relaxed);
    }
    /// @}

  private:
    int randomHeight();

    /**
     * Walk toward @p key: fills @p preds (when non-null) with the
     * last node strictly below @p key per level, returns the first
     * node with key >= @p key (null if none).
     */
    OrderedIndexNode *findFrom(std::uint64_t key,
                               OrderedIndexNode **preds) const;

    OrderedIndexNode *head_ = nullptr;
    OrderedIndexNode *limbo_ = nullptr;  ///< retired, unfreed nodes

    std::uint64_t rngState_;
    std::atomic<std::uint64_t> entries_{0};
    std::atomic<std::uint64_t> residentBytes_{0};
    std::atomic<std::uint64_t> limboNodes_{0};
};

} // namespace lp::index

#endif // LP_INDEX_ORDERED_INDEX_HH
