/**
 * @file
 * The scatter-gather merge shared by KvStore::scan (per-shard
 * OrderedIndex cursors) and the server's SCAN reply (per-worker
 * sub-scan record vectors).
 */

#ifndef LP_INDEX_MERGE_HH
#define LP_INDEX_MERGE_HH

#include <cstddef>
#include <cstdint>

namespace lp::index
{

/**
 * K-way merge of @p n ascending cursors over disjoint key sets (shards
 * partition the key space, so every key sits under exactly one cursor
 * and popping the minimum head yields global order). Calls
 * @p emit(key, value) for up to @p limit records and returns how many
 * it emitted. A Cursor has valid(), key(), value() and advance(), like
 * OrderedIndex::Cursor. Allocates nothing.
 */
template <class Cursor, class Emit>
std::size_t
mergeAscending(Cursor *cur, std::size_t n, std::size_t limit,
               Emit &&emit)
{
    std::size_t emitted = 0;
    while (emitted < limit) {
        Cursor *best = nullptr;
        std::uint64_t bestKey = 0;
        for (std::size_t s = 0; s < n; ++s) {
            if (!cur[s].valid())
                continue;
            const std::uint64_t k = cur[s].key();
            if (!best || k < bestKey) {
                best = &cur[s];
                bestKey = k;
            }
        }
        if (!best)
            break;
        emit(bestKey, best->value());
        best->advance();
        ++emitted;
    }
    return emitted;
}

} // namespace lp::index

#endif // LP_INDEX_MERGE_HH
