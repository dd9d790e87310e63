/**
 * @file
 * Tests for lp::index::OrderedIndex and its KvStore integration:
 * ordered-map semantics against std::map under a randomized op
 * stream, lowerBound/first cursor behavior, value updates,
 * erase/limbo/reclaim memory accounting, the single-writer/
 * multi-reader contract under a thread stress (the ThreadSanitizer
 * target, values included), and end-to-end KvStore::scan on every
 * backend -- cross-shard merge order, staged-delete visibility, and
 * scan/get agreement across folds, checkpoints and recovery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "index/ordered_index.hh"
#include "kernels/env.hh"
#include "store/kv_store.hh"

namespace lp
{
namespace
{

using index::OrderedIndex;
using index::OrderedIndexNode;

/** Collect every key by walking the bottom level. */
std::vector<std::uint64_t>
allKeys(const OrderedIndex &idx)
{
    std::vector<std::uint64_t> out;
    for (auto c = idx.first(); c.valid(); c.advance())
        out.push_back(c.key());
    return out;
}

TEST(OrderedIndex, MatchesStdSetUnderRandomOps)
{
    OrderedIndex idx;
    std::map<std::uint64_t, std::uint64_t> model;
    std::mt19937_64 rng(20260807);

    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng() % 4096;
        if (rng() % 3 == 0) {
            idx.erase(key);
            model.erase(key);
        } else {
            const std::uint64_t value = rng();
            idx.insert(key, value);
            model[key] = value;
        }
        ASSERT_EQ(idx.entries(), model.size());
    }

    const auto keys = allKeys(idx);
    ASSERT_EQ(keys.size(), model.size());
    auto it = model.begin();
    for (auto c = idx.first(); c.valid(); c.advance()) {
        EXPECT_EQ(c.key(), it->first);
        EXPECT_EQ(c.value(), it->second);
        ++it;
    }
    for (std::uint64_t k = 0; k < 4096; k += 17)
        EXPECT_EQ(idx.contains(k), model.count(k) == 1) << k;
}

TEST(OrderedIndex, LowerBoundSemantics)
{
    OrderedIndex idx;
    for (const std::uint64_t k : {10u, 20u, 30u, 40u})
        idx.insert(k, k + 1);

    ASSERT_TRUE(idx.first().valid());
    EXPECT_EQ(idx.first().key(), 10u);
    EXPECT_EQ(idx.first().value(), 11u);
    EXPECT_EQ(idx.lowerBound(11).value(), 21u);

    EXPECT_EQ(idx.lowerBound(0).key(), 10u);    // before everything
    EXPECT_EQ(idx.lowerBound(10).key(), 10u);   // exact hit
    EXPECT_EQ(idx.lowerBound(11).key(), 20u);   // between keys
    EXPECT_EQ(idx.lowerBound(40).key(), 40u);   // last key
    EXPECT_FALSE(idx.lowerBound(41).valid());   // past the end

    auto c = idx.lowerBound(15);
    std::vector<std::uint64_t> walked;
    for (; c.valid(); c.advance())
        walked.push_back(c.key());
    EXPECT_EQ(walked, (std::vector<std::uint64_t>{20, 30, 40}));
}

TEST(OrderedIndex, DuplicateInsertAndAbsentEraseAreNoops)
{
    OrderedIndex idx;
    idx.insert(7, 1);
    const std::uint64_t bytes = idx.residentBytes();
    idx.insert(7, 2);
    EXPECT_EQ(idx.entries(), 1u);
    EXPECT_EQ(idx.residentBytes(), bytes);  // no second node allocated
    EXPECT_EQ(idx.lowerBound(7).value(), 2u);  // the value updates

    idx.erase(123456);  // absent
    EXPECT_EQ(idx.entries(), 1u);
    EXPECT_EQ(idx.limboNodes(), 0u);
}

TEST(OrderedIndex, EraseLimboReclaimAccounting)
{
    OrderedIndex idx;
    const std::uint64_t headBytes = idx.residentBytes();
    EXPECT_EQ(headBytes, sizeof(OrderedIndexNode));

    for (std::uint64_t k = 0; k < 100; ++k)
        idx.insert(k, k);
    const std::uint64_t fullBytes = idx.residentBytes();
    EXPECT_EQ(fullBytes, headBytes + 100 * sizeof(OrderedIndexNode));

    // Erase unlinks but keeps the node resident until reclaim().
    for (std::uint64_t k = 0; k < 100; k += 2)
        idx.erase(k);
    EXPECT_EQ(idx.entries(), 50u);
    EXPECT_EQ(idx.limboNodes(), 50u);
    EXPECT_EQ(idx.residentBytes(), fullBytes);

    idx.reclaim();
    EXPECT_EQ(idx.limboNodes(), 0u);
    EXPECT_EQ(idx.residentBytes(),
              headBytes + 50 * sizeof(OrderedIndexNode));

    idx.clear();
    EXPECT_EQ(idx.entries(), 0u);
    EXPECT_EQ(idx.residentBytes(), headBytes);
    EXPECT_FALSE(idx.first().valid());

    // The index must stay usable after clear().
    idx.insert(5, 5);
    EXPECT_TRUE(idx.contains(5));
}

/**
 * The TSan target: one writer inserting, updating and erasing while
 * reader threads traverse. Readers assert strictly ascending keys on
 * every walk, and that each value belongs to its key (the writer
 * stores key * 1000 + a generation) -- a torn publish, an unordered
 * value update or a reader-visible free would show up here (and as a
 * data-race report under -fsanitize=thread). reclaim() only runs
 * after the readers have joined, per the quiesce contract.
 */
TEST(OrderedIndex, ConcurrentReadersSeeOrderedKeys)
{
    OrderedIndex idx;
    for (std::uint64_t k = 0; k < 512; k += 2)
        idx.insert(k * 8, k * 8 * 1000);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> violations{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&idx, &stop, &violations, t] {
            std::mt19937_64 rng(std::uint64_t(t) + 1);
            while (!stop.load(std::memory_order_relaxed)) {
                auto c = idx.lowerBound(rng() % 5000);
                std::uint64_t prev = 0;
                bool started = false;
                for (int steps = 0; c.valid() && steps < 64;
                     ++steps, c.advance()) {
                    const std::uint64_t k = c.key();
                    if (started && k <= prev)
                        violations.fetch_add(1);
                    if (c.value() / 1000 != k)
                        violations.fetch_add(1);
                    prev = k;
                    started = true;
                }
            }
        });
    }

    std::mt19937_64 rng(99);
    for (int i = 0; i < 60000; ++i) {
        const std::uint64_t key = (rng() % 512) * 8;
        if (rng() % 2 == 0)
            idx.insert(key, key * 1000 + std::uint64_t(i % 1000));
        else
            idx.erase(key);
    }
    stop.store(true);
    for (auto &r : readers)
        r.join();
    idx.reclaim();  // quiesced: all readers joined

    EXPECT_EQ(violations.load(), 0u);
    const auto keys = allKeys(idx);
    for (std::size_t i = 1; i < keys.size(); ++i)
        ASSERT_LT(keys[i - 1], keys[i]);
}

} // namespace
} // namespace lp

namespace lp::store
{
namespace
{

const Backend kBackends[] = {Backend::Lp, Backend::EagerPerOp,
                             Backend::Wal};

class ScanBackends : public ::testing::TestWithParam<Backend>
{
};

StoreConfig
scanConfig()
{
    StoreConfig cfg;
    cfg.capacity = 2048;
    cfg.shards = 4;  // scans must merge across all of them
    cfg.batchOps = 8;
    cfg.foldBatches = 4;
    return cfg;
}

TEST_P(ScanBackends, ScanMergesShardsInKeyOrder)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    std::map<std::uint64_t, std::uint64_t> golden;
    std::mt19937_64 rng(7);
    for (int i = 0; i < 600; ++i) {
        const std::uint64_t k = rng() % 100000;
        store.put(env, k, k + 1);
        golden[k] = k + 1;
    }

    // Full scan (limit beyond size) equals the golden map in order.
    const auto full = store.scan(env, 0, golden.size() + 8);
    ASSERT_EQ(full.size(), golden.size());
    auto it = golden.begin();
    for (const auto &[k, v] : full) {
        EXPECT_EQ(k, it->first);
        EXPECT_EQ(v, it->second);
        ++it;
    }

    // Bounded scans from arbitrary starts: correct slice of golden.
    for (const std::uint64_t start : {0ull, 5000ull, 99999ull}) {
        const auto out = store.scan(env, start, 10);
        auto g = golden.lower_bound(start);
        for (const auto &[k, v] : out) {
            ASSERT_NE(g, golden.end());
            EXPECT_EQ(k, g->first);
            EXPECT_EQ(v, g->second);
            ++g;
        }
        const std::size_t left =
            std::size_t(std::distance(golden.lower_bound(start),
                                      golden.end()));
        EXPECT_EQ(out.size(), std::min<std::size_t>(10, left));
    }

    // Start past every key: legal, empty.
    EXPECT_TRUE(store.scan(env, maxUserKey, 5).empty());
}

TEST_P(ScanBackends, ScanSeesStagedMutationsLikeGet)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    for (std::uint64_t k = 100; k < 110; ++k)
        store.put(env, k, k);
    store.checkpoint(env);

    // Staged, not yet folded: a scan must still see the new value
    // and must not see the deleted key -- exactly like get().
    store.put(env, 105, 9999);
    store.del(env, 107);

    const auto out = store.scan(env, 100, 100);
    std::map<std::uint64_t, std::uint64_t> seen(out.begin(), out.end());
    EXPECT_EQ(seen.at(105), 9999u);
    EXPECT_EQ(seen.count(107), 0u);
    EXPECT_EQ(out.size(), 9u);
    for (const auto &[k, v] : out)
        EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(v));

    // Scan values come from the index, so they must keep matching
    // get() -- and the golden map -- whatever moved the table: folds
    // applying staged deltas, a checkpoint, and a recovery rebuild.
    std::map<std::uint64_t, std::uint64_t> golden = seen;
    const auto agrees = [&](const char *when) {
        const auto all = store.scan(env, 0, 4096);
        EXPECT_EQ(all.size(), golden.size()) << when;
        auto g = golden.begin();
        for (const auto &[k, v] : all) {
            ASSERT_NE(g, golden.end()) << when;
            EXPECT_EQ(k, g->first) << when;
            EXPECT_EQ(v, g->second) << when;
            EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(v))
                << when << " key " << k;
            ++g;
        }
    };
    const std::uint64_t foldsBefore = [&] {
        std::uint64_t f = 0;
        for (int s = 0; s < scfg.shards; ++s)
            f += store.shard(s).pipeline().counters().folds;
        return f;
    }();
    std::mt19937_64 rng(29);
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t k = 100 + rng() % 40;
        if (rng() % 5 == 0) {
            store.del(env, k);
            golden.erase(k);
        } else {
            const std::uint64_t v = rng() % 100000;
            store.put(env, k, v);
            golden[k] = v;
        }
        if (i % 50 == 0)
            agrees("mid-stream");
    }
    std::uint64_t foldsAfter = 0;
    for (int s = 0; s < scfg.shards; ++s)
        foldsAfter += store.shard(s).pipeline().counters().folds;
    if (GetParam() == Backend::Lp) {
        EXPECT_GT(foldsAfter, foldsBefore) << "no fold ran";
    }
    agrees("after folds");

    store.put(env, 200, 1);  // staged into a still-open epoch
    golden[200] = 1;
    store.checkpoint(env);
    agrees("after checkpoint");

    store.recover(env);
    agrees("after recover");
}

TEST_P(ScanBackends, RecoveryRebuildAgreesWithPointGets)
{
    const StoreConfig scfg = scanConfig();
    pmem::PersistentArena arena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> store(arena, scfg, GetParam());
    arena.persistAll();
    kernels::NativeEnv env;

    std::mt19937_64 rng(13);
    for (int i = 0; i < 400; ++i)
        store.put(env, rng() % 50000, std::uint64_t(i));
    for (int i = 0; i < 50; ++i)
        store.del(env, rng() % 50000);
    store.checkpoint(env);
    const auto before = store.scan(env, 0, 4096);

    // recover() clears and rebuilds every shard's index from the
    // durable table; the rebuilt scan must match byte for byte.
    store.recover(env);
    const auto after = store.scan(env, 0, 4096);
    EXPECT_EQ(before, after);

    std::uint64_t entries = 0;
    for (int s = 0; s < scfg.shards; ++s) {
        entries += store.shard(s).indexEntries();
        EXPECT_GT(store.shard(s).indexBytes(), 0u);
    }
    EXPECT_EQ(entries, after.size());
    for (const auto &[k, v] : after)
        EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(v));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ScanBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return backendName(info.param);
                         });

} // namespace
} // namespace lp::store
