/**
 * @file
 * lp::store -- a crash-recoverable persistent key-value store built
 * on Lazy Persistency.
 *
 * This header is the thin facade over the store's layers:
 *
 *  - layout.hh     -- persistent structures + the shared SlotTable
 *  - journal.hh    -- per-shard batch journal (append/seal/replay)
 *  - backend_*.hh  -- the three persistency policies (Lazy
 *                     Persistency, eager per-op, WAL) behind the
 *                     PersistencyBackend interface of backend.hh;
 *                     one instance per shard
 *  - shard.hh      -- store::Shard, everything one shard owns: its
 *                     backend, engine::CommitPipeline (epoch/batch/
 *                     fold scheduling, shared with lp::server),
 *                     observability bundle and ordered index
 *
 * Keys are partitioned across shards; each shard owns its own epoch
 * sequence and whatever persistent structures its backend needs. All
 * shards share one open-addressing persistent table. The KvStore
 * owns that table and the shards, and adds only what spans shards:
 * key routing, the ordered scan merge, and the store-wide loops
 * (commit, checkpoint, recover, verify, mark clean, snapshot).
 * Durability is entirely the backend's; the full persistency story
 * lives in backend_lp.hh and docs/engine_design.md.
 *
 * All backends run the same probe and layout code and are templated
 * over Env: the identical source instantiates against SimEnv
 * (measured) and NativeEnv (native).
 *
 * Concurrency: single writer per shard. A KvStore instance and every
 * shard inside it are single-threaded: all calls on one instance
 * must come from the thread that owns it (see the contract block in
 * src/kernels/env.hh). A concurrent service shards at the process
 * level instead -- one single-shard KvStore per worker thread over
 * its own arena, as lp::server does. Debug builds assert the
 * owning-thread contract on every shard access; recover() rebinds
 * ownership to the recovering thread.
 */

#ifndef LP_STORE_KV_STORE_HH
#define LP_STORE_KV_STORE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "engine/commit_pipeline.hh"
#include "index/merge.hh"
#include "pmem/arena.hh"
#include "store/shard.hh"

namespace lp::store
{

/**
 * The persistent KV store. One instance owns its arena allocations;
 * callers must arena.persistAll() after construction to establish
 * the initial durable image (as all workloads in this repo do).
 */
template <typename Env>
class KvStore
{
  public:
    /**
     * Construct over @p arena. With @p attach false (the default) all
     * persistent structures are formatted empty; the caller should
     * arena.persistAll() afterwards. With @p attach true, nothing is
     * initialized: the arena holds an existing durable image (a
     * re-mapped backing file after a process restart) and the
     * allocation sequence -- the shared table, then each shard in
     * shard order, deterministic in @p cfg and @p backend --
     * re-derives the same offsets the previous incarnation used. An
     * attached store MUST recover() before any other call.
     */
    KvStore(pmem::PersistentArena &arena, const StoreConfig &cfg,
            Backend backend, bool attach = false)
        : cfg_(cfg), table_(arena, cfg.capacity, attach)
    {
        LP_ASSERT(cfg.shards >= 1, "need at least one shard");
        LP_ASSERT(cfg.batchOps >= 1,
                  "need at least one op per batch");
        LP_ASSERT(cfg.foldBatches >= 1,
                  "need at least one batch per fold");
        for (int i = 0; i < cfg.shards; ++i)
            shards_.emplace_back(arena, cfg_, table_, backend, i,
                                 attach);
    }

    KvStore(const KvStore &) = delete;
    KvStore &operator=(const KvStore &) = delete;

    const StoreConfig &config() const { return cfg_; }
    int shardOf(std::uint64_t key) const
    {
        return shardOfKey(key, cfg_.shards);
    }

    /** Shard @p i (0 <= i < config().shards). */
    Shard<Env> &shard(int i) { return shards_[std::size_t(i)]; }
    const Shard<Env> &shard(int i) const
    {
        return shards_[std::size_t(i)];
    }

    /** Shard @p i's commit pipeline: shorthand for
     *  shard(i).pipeline(), which lpbench_gen reads its counters by. */
    const engine::CommitPipeline &pipeline(int i) const
    {
        return shard(i).pipeline();
    }

    /**
     * Insert or update @p key in its shard; returns the op's epoch
     * (Shard::stage). @p traceId attributes the op to a request trace.
     */
    std::uint64_t
    put(Env &env, std::uint64_t key, std::uint64_t value,
        std::uint64_t traceId = 0)
    {
        return route(key).stage(env, JOp::Put, key, value, traceId);
    }

    /** Delete @p key (a no-op if absent); returns the op's epoch. */
    std::uint64_t
    del(Env &env, std::uint64_t key, std::uint64_t traceId = 0)
    {
        return route(key).stage(env, JOp::Del, key, 0, traceId);
    }

    /** Read @p key, observing this handle's own uncommitted writes. */
    std::optional<std::uint64_t>
    get(Env &env, std::uint64_t key)
    {
        return route(key).get(env, key);
    }

    /**
     * Ordered range read: up to @p limit records with key >= @p start,
     * ascending, merged across every shard's ordered index. Values
     * come from the index, which Shard::stage keeps at the latest
     * staged value of every live key, so a scan observes exactly the
     * state point reads observe -- staged (unfolded) puts and deletes
     * included -- without a table probe per record. Crash consistency
     * still comes entirely from the journal checksums: recover()
     * rebuilds the index from the validated table. Whole-scan
     * latency and returned-record count land in shard 0's scanNs /
     * scanLen histograms (exactly per-shard for the server's
     * single-shard worker stores).
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    scan(Env &env, std::uint64_t start, std::size_t limit)
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        scan(env, start, limit,
             [&out](std::uint64_t k, std::uint64_t v) {
                 out.emplace_back(k, v);
             });
        return out;
    }

    /**
     * The same range read, handing each record to @p emit(key, value)
     * in ascending order instead of collecting them; returns the
     * record count.
     */
    template <class Emit>
    std::size_t
    scan(Env &, std::uint64_t start, std::size_t limit, Emit &&emit)
    {
        obs::ShardObs &ob = shards_.front().obs();
        obs::ScopedTimer timer(ob.scanNs);
        std::vector<index::OrderedIndex::Cursor> cur;
        cur.reserve(shards_.size());
        for (const Shard<Env> &sh : shards_)
            cur.push_back(sh.lowerBound(start));
        const std::size_t n =
            index::mergeAscending(cur.data(), cur.size(), limit, emit);
        ob.scanLen.record(n);
        return n;
    }

    /** Close and commit every shard's open batch (partial batches). */
    void
    commitBatches(Env &env)
    {
        for (Shard<Env> &sh : shards_)
            sh.commit(env);
    }

    /**
     * Commit all open batches and make every committed op durable:
     * after this returns, recover() would find nothing to do. The LP
     * backend folds every shard's journal.
     */
    void
    checkpoint(Env &env)
    {
        commitBatches(env);
        for (Shard<Env> &sh : shards_)
            sh.fold(env);
    }

    /**
     * Durably mark every non-quarantined shard cleanly shut down.
     * Call ONLY after checkpoint() (or commitBatches() +
     * persistAll() on a simulated arena) so the claim is true: the
     * flag switches the next recovery into strict mode, where a
     * validation failure is a media fault rather than a crash tear.
     */
    void
    markClean(Env &env)
    {
        for (Shard<Env> &sh : shards_)
            sh.markClean(env);
    }

    /**
     * Crash recovery. Call on a freshly restored durable image (after
     * Machine::loseVolatileState() + PersistentArena::crashRestore());
     * repairs the table with Eager Persistency and rebuilds all
     * volatile bookkeeping. Idempotent: a crash during recovery is
     * handled by running recovery again.
     */
    RecoveryReport
    recover(Env &env)
    {
        RecoveryReport rep;
        rep.committedEpochs.reserve(shards_.size());
        for (Shard<Env> &sh : shards_)
            rep.committedEpochs.push_back(sh.recover(env, rep));
        table_.resyncUsed();
        // Rebuild the ordered indexes from the recovered table. The
        // table now holds exactly the checksum-validated committed
        // prefix (staged volatile deltas died with the crash), so the
        // rebuilt index agrees with point-GET recovery by
        // construction. Host-side walk, like snapshot(): recovery
        // already paid its simulated cost in the backend replay.
        for (std::size_t i = 0; i < table_.slotCount(); ++i) {
            const KvSlot &slot = table_.slot(i);
            if (slot.key <= maxUserKey)
                route(slot.key).reindex(slot.key, slot.value);
        }
        return rep;
    }

    /**
     * Audit every shard's durability invariants (Shard::verify). A
     * test/debug aid: do not call inside a measured phase.
     */
    bool
    verify(Env &env)
    {
        for (Shard<Env> &sh : shards_)
            if (!sh.verify(env))
                return false;
        return true;
    }

    /**
     * Host-side view of the full logical map, including this handle's
     * uncommitted ops (test oracle; not instrumented).
     */
    std::map<std::uint64_t, std::uint64_t>
    snapshot() const
    {
        std::map<std::uint64_t, std::uint64_t> out;
        for (std::size_t i = 0; i < table_.slotCount(); ++i) {
            const KvSlot &s = table_.slot(i);
            if (s.key <= maxUserKey)
                out[s.key] = s.value;
        }
        for (const Shard<Env> &sh : shards_)
            sh.mergeStaged(out);
        return out;
    }

    /** Number of live keys (host-side). */
    std::size_t liveKeys() const { return snapshot().size(); }

  private:
    Shard<Env> &route(std::uint64_t key) { return shard(shardOf(key)); }

    StoreConfig cfg_;
    SlotTable<Env> table_;
    std::deque<Shard<Env>> shards_;  // stable addresses (non-movable)
};

} // namespace lp::store

#endif // LP_STORE_KV_STORE_HH
