/**
 * @file
 * store::Shard -- one shard of the `lp::store` key-value store, the
 * unit Lazy Persistency commits, checksums and recovers on its own:
 * its engine::CommitPipeline, obs::ShardObs, volatile ordered index,
 * debug owner binding, and its one PersistencyBackend, which owns the
 * shard's persistent structures over the SlotTable all shards of a
 * store share. KvStore routes keys over a deque of shards; lp::server
 * calls each worker's one Shard directly.
 *
 * Construction allocates the shard's persistent structures, so shards
 * must be built in shard order after the shared table: the sequence
 * attach mode replays (docs/engine_design.md).
 *
 * Concurrency: single writer (src/kernels/env.hh). Debug builds
 * assert it on every mutating or table-reading call; the first
 * toucher owns the shard and recover() rebinds it. The histograms,
 * media counters, quarantine flag and index gauges may be read from
 * any thread (the server's acceptor does, for METRICS).
 */

#ifndef LP_STORE_SHARD_HH
#define LP_STORE_SHARD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "base/logging.hh"
#include "engine/commit_pipeline.hh"
#include "index/ordered_index.hh"
#include "obs/shard_obs.hh"
#include "pmem/arena.hh"
#include "store/backends.hh"

namespace lp::store
{

template <typename Env>
class Shard
{
  public:
    /**
     * Shard @p id of a store over @p table, allocating its backend's
     * structures from @p arena (formatted empty unless @p attach).
     * @p cfg and @p table must outlive the shard.
     */
    Shard(pmem::PersistentArena &arena, const StoreConfig &cfg,
          SlotTable<Env> &table, Backend backend, int id, bool attach)
        : id_(id), table_(table),
          pipeline_(commitPolicyFor(backend, cfg))
    {
        pipeline_.attachObs(&obs_);
        backend_ = makeBackend<Env>(
            backend, StoreContext<Env>{&arena, &cfg, &table, &pipeline_},
            attach);
    }

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /**
     * Stage one mutation into the open epoch; returns the epoch it
     * landed in, which drivers use to tag ops for committed-replay
     * verification (under the eager backend every op is its own
     * epoch, so this doubles as an op sequence number). @p traceId
     * (when nonzero) attributes the op to a request trace: it becomes
     * the stage-latency exemplar and flows into the epoch-commit span
     * of the epoch that makes the op durable.
     */
    std::uint64_t
    stage(Env &env, JOp op, std::uint64_t key, std::uint64_t value,
          std::uint64_t traceId = 0)
    {
        LP_ASSERT(key <= maxUserKey, "key in reserved sentinel range");
        checkOwner();
        // Attribute the request to the open epoch BEFORE staging:
        // stage() may close the epoch (batch full), and the backend's
        // epoch-commit span wants this op's trace id as its flow id.
        pipeline_.noteTrace(traceId);
        // Per-mutation latency: includes any epoch commit or fold
        // stage() triggers, so the histogram tail is exactly the
        // fold-pause story the paper's Figure 10 argues about. Timed
        // explicitly (not ScopedTimer) so the same sample can feed
        // the stage-latency exemplar for this request's trace.
        const std::uint64_t t0 = obs::nowNs();
        const std::uint64_t epoch = backend_->stage(env, op, key, value);
        const std::uint64_t dt = obs::nowNs() - t0;
        obs_.stageNs.record(dt);
        if (traceId)
            obs_.stageNs.recordExemplar(dt, traceId);
        // Mirror the mutation into the ordered index AFTER it is
        // staged (a simulated crash inside stage() aborts before the
        // index update; recover() rebuilds it regardless). The index
        // holds the staged value and erases on delete, so scans stay
        // in lockstep with get()'s staged visibility.
        if (op == JOp::Put)
            index_.insert(key, value);
        else
            index_.erase(key);
        return epoch;
    }

    /** Read @p key, observing this shard's own uncommitted writes. */
    std::optional<std::uint64_t>
    get(Env &env, std::uint64_t key)
    {
        LP_ASSERT(key <= maxUserKey, "key in reserved sentinel range");
        checkOwner();
        // Batched backends keep unfolded/unapplied ops out of the
        // table; the staged lookup provides read-your-writes over
        // them (and is a free no-op for the eager backend).
        if (const auto d = backend_->staged(env, key)) {
            if (!d->isPut)
                return std::nullopt;
            return d->value;
        }
        const std::size_t i = table_.probeFind(env, key);
        if (i == SlotTable<Env>::npos)
            return std::nullopt;
        return env.ld(&table_.slot(i).value);
    }

    /** Commit the open epoch (even underfilled); fold if one is due. */
    void
    commit(Env &env)
    {
        backend_->commitEpoch(env);
        if (pipeline_.foldDue())
            backend_->fold(env);
    }

    /**
     * Eager checkpoint: make every committed epoch durable in the
     * table. Call with no epoch open (after commit()). A checkpoint
     * is a quiesce point for the owner (not mid-scan), so retired
     * index nodes are freed here too.
     */
    void
    fold(Env &env)
    {
        backend_->fold(env);
        index_.reclaim();
    }

    /**
     * Crash recovery of this shard's persistent structures (the
     * backend's hook contract); rebinds ownership to the calling
     * thread and empties the index, which the owning store rebuilds
     * from the recovered table with reindex(). Returns the shard's
     * committed watermark.
     */
    std::uint64_t
    recover(Env &env, RecoveryReport &rep)
    {
#ifndef NDEBUG
        owner_ = std::this_thread::get_id();
#endif
        index_.clear();
        obs::Span span(obs_.ring, "recover_shard", std::uint64_t(id_));
        obs::ScopedTimer timer(obs_.recoverNs);
        return backend_->recover(env, rep);
    }

    /** Re-seed the index with one recovered record (after recover()). */
    void
    reindex(std::uint64_t key, std::uint64_t value)
    {
        index_.insert(key, value);
    }

    /**
     * Audit the backend's durability invariants (committed LP digests
     * still validate, no armed WAL transaction). Reads through the
     * Env, so it perturbs simulated caches like any other access.
     */
    bool verify(Env &env) { return backend_->verify(env); }

    /**
     * One online-scrub step: validate up to @p maxRegions protected
     * regions, repairing from parity where the fingerprints prove it.
     * Owner-thread only (it may write); cheap enough for an idle
     * loop. Returns regions examined.
     */
    std::size_t
    scrubStep(Env &env, std::size_t maxRegions)
    {
        checkOwner();
        obs::Span span(obs_.ring, "scrub", std::uint64_t(id_));
        obs::ScopedTimer timer(obs_.scrubNs);
        return backend_->scrub(env, maxRegions);
    }

    /**
     * Durably mark the shard cleanly shut down, unless it is
     * quarantined (its pre-fault superblock stays untouched so the
     * next recovery re-detects the quarantine). Call only after every
     * committed op is durable; see KvStore::markClean.
     */
    void
    markClean(Env &env)
    {
        if (quarantined())
            return;
        checkOwner();
        backend_->markClean(env);
    }

    /** Overlay staged-but-unapplied mutations onto @p out. */
    void
    mergeStaged(std::map<std::uint64_t, std::uint64_t> &out) const
    {
        backend_->mergeStaged(out);
    }

    /**
     * Index cursor at the first key >= @p start; values are the
     * latest staged ones, so a scan observes what get() observes.
     */
    index::OrderedIndex::Cursor
    lowerBound(std::uint64_t start) const
    {
        return index_.lowerBound(start);
    }

    /** Commit scheduling state (and stat counters). */
    engine::CommitPipeline &pipeline() { return pipeline_; }
    const engine::CommitPipeline &pipeline() const { return pipeline_; }

    /**
     * Latency histograms (always recording) and trace ring.
     * Histograms follow the obs::Histogram concurrency contract: any
     * thread may read them while the owner records.
     */
    obs::ShardObs &obs() { return obs_; }
    const obs::ShardObs &obs() const { return obs_; }

    /**
     * Route trace spans (epoch commits, folds, recovery, scrub) to
     * @p ring; null detaches. The ring must outlive the shard.
     */
    void attachTraceRing(obs::TraceRing *ring) { obs_.ring = ring; }

    /** Volatile epoch watermark (last committed batch). */
    std::uint64_t committedEpoch() const
    {
        return pipeline_.lastCommitted();
    }

    /** Cumulative media-fault counters (any thread). */
    const MediaCounters &mediaCounters() const
    {
        return backend_->mediaCounters();
    }

    /**
     * True when the shard hit provable-but-unrepairable corruption
     * and must not be mutated; reads stay safe (nothing invalid was
     * ever applied to the table). The server maps this to read-only
     * Fault replies (docs/repair_design.md). Any thread.
     */
    bool quarantined() const { return backend_->quarantined(); }

    /** Where the media-protected structures live (fault injection). */
    FaultSurface faultSurface() const
    {
        return backend_->faultSurface();
    }

    /** Live keys in the ordered index (any thread). */
    std::uint64_t indexEntries() const { return index_.entries(); }

    /** Resident bytes of the ordered index (any thread). */
    std::uint64_t indexBytes() const { return index_.residentBytes(); }

  private:
    /**
     * Enforce (debug builds) the single-writer contract. Binding is
     * lazy, so single-threaded callers are unaffected and a service
     * binds each shard to its worker on the worker's first operation.
     */
    void
    checkOwner()
    {
#ifndef NDEBUG
        const std::thread::id self = std::this_thread::get_id();
        if (owner_ == std::thread::id{})
            owner_ = self;
        LP_ASSERT(owner_ == self,
                  "lp::store single-writer-per-shard contract violated:"
                  " shard " + std::to_string(id_) +
                  " accessed by a second thread (see the concurrency "
                  "contract in src/kernels/env.hh)");
#endif
    }

    const int id_;
    SlotTable<Env> &table_;
    engine::CommitPipeline pipeline_;
    obs::ShardObs obs_;  // attached to pipeline_ (stable address)
    index::OrderedIndex index_;
    std::thread::id owner_;  // debug owner binding
    std::unique_ptr<PersistencyBackend<Env>> backend_;
};

} // namespace lp::store

#endif // LP_STORE_SHARD_HH
