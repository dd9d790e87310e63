/**
 * @file
 * The persistency-backend contract of the `lp::store` key-value
 * store (docs/engine_design.md is the narrative version).
 *
 * A backend is the policy that makes mutations durable. One instance
 * serves exactly one shard (store::Shard owns it): it owns the
 * persistent structures its discipline needs for that shard (journal
 * with its batch digests, WAL, superblock pair) and mutates the
 * shared SlotTable through the StoreContext; epoch numbering and
 * batch/fold accounting are delegated to the shard's
 * engine::CommitPipeline so the same scheduling drives the store and
 * lp::server.
 *
 * Hook contract (see each backend for its story):
 *
 *  - stage(op): admit one mutation into the open epoch, committing
 *    (and folding) when the pipeline says the period elapsed; returns
 *    the epoch the op landed in.
 *  - commitEpoch(): close and commit the open epoch even if
 *    underfilled (end of a server round, checkpoint).
 *  - fold(): eager checkpoint -- make every committed epoch durable
 *    in the table. No-op for backends whose commit is already
 *    durable (eager, WAL).
 *  - recover(): rebuild from the durable image after a crash; must
 *    leave the shard ready for new mutations and the pipeline
 *    rebased to the committed watermark, which it returns. Attempts
 *    media-fault repair
 *    (parity reconstruction, superblock replicas) before falling
 *    back to epoch discard, and quarantines on provable-but-
 *    unrepairable corruption (docs/repair_design.md).
 *  - verify(): non-mutating audit of the backend's own invariants
 *    (committed digests still validate; no armed WAL). A debugging /
 *    test aid: it reads through the Env and thus perturbs the
 *    simulated caches like any other access.
 *  - scrub(): incremental online validate-and-repair walk over the
 *    backend's sealed media-protected structures; bounded work per
 *    call so the caller (the server's idle loop) can rate-limit it.
 *  - staged()/mergeStaged(): read-your-writes over mutations that
 *    are staged but not yet applied to the table.
 *
 * Media-fault tolerance plumbing shared by ALL backends lives here:
 * the shard's superblock (ShardMeta) is kept in TWO copies sealed
 * by a check word, so recovery can prove corruption (a crash leaves
 * each block-atomic copy self-consistent) and repair from the twin.
 * The shard's MediaCounters record repairs/unrepairable faults for
 * METRICS; unrepairable > 0 means the shard is QUARANTINED
 * (callers must stop mutating it; lp::server serves it read-only).
 *
 * Allocation-order determinism: a backend's constructor must
 * allocate its arena structures in a fixed order, because attach
 * mode re-derives offsets purely by re-running the same allocation
 * sequence over the existing image. The base constructor allocates
 * the superblock pair (replica immediately after the primary) before
 * any derived member, so every backend's shard starts with it.
 */

#ifndef LP_STORE_BACKEND_HH
#define LP_STORE_BACKEND_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>

#include "engine/commit_pipeline.hh"
#include "pmem/arena.hh"
#include "repair/repair.hh"
#include "store/journal.hh"
#include "store/layout.hh"

namespace lp::store
{

/** Coalesced effect of one staged-but-unapplied mutation. */
struct DeltaVal
{
    bool isPut;
    std::uint64_t value;
};

/** What a backend borrows from the Shard that owns it. */
template <typename Env>
struct StoreContext
{
    pmem::PersistentArena *arena;
    const StoreConfig *cfg;
    SlotTable<Env> *table;
    engine::CommitPipeline *pipeline;
};

/** CommitPolicy a store pipeline runs under @p backend and @p cfg. */
engine::CommitPolicy commitPolicyFor(Backend backend,
                                     const StoreConfig &cfg);

/**
 * Cumulative media-fault counters of a shard. The shard's single
 * writer updates them (recovery, scrub); any thread may read (the
 * server's acceptor exports them in METRICS), hence atomics.
 */
struct MediaCounters
{
    std::atomic<std::uint64_t> repaired{0};
    std::atomic<std::uint64_t> unrepairable{0};
    std::atomic<std::uint64_t> scrubRegions{0};
    std::atomic<std::uint64_t> scrubPasses{0};
};

/**
 * Host-pointer map of a shard's media-protected structures, for
 * fault injection (pmem/fault.hh, `lazyper_cli inject`) and the
 * corruption-matrix tests. Null / zero fields simply do not exist
 * for the backend (only LP has a journal and parity).
 */
struct FaultSurface
{
    const void *metaPrimary = nullptr;   ///< 64B shard superblock
    const void *metaReplica = nullptr;   ///< its 64B replica
    const void *journal = nullptr;       ///< journal record buffer
    std::size_t journalBytes = 0;
    std::size_t sealedBytes = 0;         ///< sealed journal prefix
    const void *parity = nullptr;        ///< XOR parity blocks
    std::size_t parityBytes = 0;
    const void *parityHashes = nullptr;  ///< region fingerprints
    std::size_t parityHashBytes = 0;
    const void *parityHeader = nullptr;  ///< coverage header block
};

/**
 * One persistency policy serving one shard; see the file comment for
 * the hook contract. Driven only by the owning store::Shard.
 */
template <typename Env>
class PersistencyBackend
{
  public:
    /** Allocates the shard's superblock pair (formatted unless
     *  @p attach), the first structure of every backend's shard. */
    PersistencyBackend(const StoreContext<Env> &ctx, bool attach)
        : ctx_(ctx), meta_(ctx.arena->template alloc<ShardMeta>(1)),
          replica_(ctx.arena->template alloc<ShardMeta>(1))
    {
        if (attach)
            return;
        for (ShardMeta *c : {meta_, replica_}) {
            c->foldedEpoch = 0;
            c->flags = 0;
            c->check = repair::shardMetaCheck(0, 0);
        }
    }

    virtual ~PersistencyBackend() = default;

    PersistencyBackend(const PersistencyBackend &) = delete;
    PersistencyBackend &operator=(const PersistencyBackend &) = delete;

    /** Admit one mutation; returns the epoch it landed in. */
    virtual std::uint64_t stage(Env &env, JOp op, std::uint64_t key,
                                std::uint64_t value) = 0;

    /** Commit the open epoch, if any (may be underfilled). */
    virtual void commitEpoch(Env &env) = 0;

    /** Eager checkpoint; default no-op for durable-on-commit backends. */
    virtual void
    fold(Env &env)
    {
        (void)env;
    }

    /**
     * Crash recovery (see the hook contract); returns the shard's
     * committed watermark.
     */
    virtual std::uint64_t recover(Env &env, RecoveryReport &rep) = 0;

    /** Non-mutating audit of the backend's durability invariants. */
    virtual bool verify(Env &env) = 0;

    /**
     * Online scrub step: validate (and repair) up to @p maxRegions
     * regions of the shard's sealed media-protected structures.
     * Returns regions actually examined (0 when there is nothing to
     * scrub or the shard is quarantined). The base implementation
     * audits the superblock pair -- the only media-protected
     * structure the eager and WAL backends own -- and counts a scrub
     * pass; the LP backend extends it over journal parity.
     */
    virtual std::size_t
    scrub(Env &env, std::size_t maxRegions)
    {
        (void)maxRegions;
        if (quarantined())
            return 0;
        auditMeta(env, nullptr);
        media_.scrubPasses.fetch_add(1, std::memory_order_relaxed);
        return 0;
    }

    /**
     * Read-your-writes lookup over staged-but-unapplied mutations;
     * std::nullopt (and no Env effect) when the key is not staged or
     * the backend applies in place.
     */
    virtual std::optional<DeltaVal>
    staged(Env &env, std::uint64_t key)
    {
        (void)env;
        (void)key;
        return std::nullopt;
    }

    /** Overlay staged mutations onto a host-side snapshot. */
    virtual void
    mergeStaged(std::map<std::uint64_t, std::uint64_t> &out) const
    {
        (void)out;
    }

    /** Where the shard's media-protected structures live. */
    virtual FaultSurface
    faultSurface() const
    {
        FaultSurface fs;
        fs.metaPrimary = meta_;
        fs.metaReplica = replica_;
        return fs;
    }

    /** The shard's cumulative media-fault counters (any thread). */
    const MediaCounters &mediaCounters() const { return media_; }

    /**
     * True when the shard hit provable-but-unrepairable corruption:
     * callers must stop mutating it (reads over the recovered prefix
     * stay safe -- nothing invalid was ever applied to the table).
     */
    bool
    quarantined() const
    {
        return media_.unrepairable.load(std::memory_order_relaxed) > 0;
    }

    /**
     * Durably mark the shard cleanly shut down. Call only when every
     * committed byte has drained (after checkpoint + persistAll /
     * msync): the flag switches the NEXT recovery into strict mode,
     * where validation failures are media faults, not crash tears.
     */
    void
    markClean(Env &env)
    {
        persistMeta(env, env.ld(&meta_->foldedEpoch),
                    shardCleanShutdown);
        env.sfence();
    }

  protected:
    /**
     * Store (@p epoch, @p flags) + check word into both superblock
     * copies and flush them; the caller's fence orders the pair.
     */
    void
    persistMeta(Env &env, std::uint64_t epoch, std::uint64_t flags)
    {
        const std::uint64_t check =
            repair::shardMetaCheck(epoch, flags);
        for (ShardMeta *c : {meta_, replica_}) {
            env.st(&c->foldedEpoch, epoch);
            env.st(&c->flags, flags);
            env.st(&c->check, check);
            env.clflushopt(c);
        }
        env.tick(6);
    }

    /** What auditMeta() concluded about a superblock pair. */
    struct MetaState
    {
        std::uint64_t epoch = 0;
        bool clean = false;  ///< strict recovery mode earned
        bool ok = false;     ///< at least one copy validated
    };

    /**
     * Validate the superblock pair, repairing a check-invalid copy
     * from its valid twin (a media fault by the block-atomicity
     * argument in layout.hh). Both copies valid but divergent is
     * crash-normal (one drained, one did not): adopt the higher
     * epoch, silently resync the other, count nothing. Both copies
     * invalid is unrepairable: quarantine. Strict (clean-shutdown)
     * mode is granted only when it is provable: both copies valid
     * and flagged clean at the same epoch, or one copy rotted but
     * the surviving valid copy is flagged clean.
     */
    MetaState
    auditMeta(Env &env, RecoveryReport *rep)
    {
        const std::uint64_t pe = env.ld(&meta_->foldedEpoch);
        const std::uint64_t pf = env.ld(&meta_->flags);
        const bool pOk =
            env.ld(&meta_->check) == repair::shardMetaCheck(pe, pf);
        const std::uint64_t re = env.ld(&replica_->foldedEpoch);
        const std::uint64_t rf = env.ld(&replica_->flags);
        const bool rOk =
            env.ld(&replica_->check) == repair::shardMetaCheck(re, rf);
        env.tick(8);
        MetaState st;
        if (pOk && rOk) {
            st.ok = true;
            if (pe == re) {
                st.epoch = pe;
                st.clean = (pf & rf & shardCleanShutdown) != 0;
            } else {
                // Crash between the copies' drains: the fold's data
                // fence precedes the meta store, so the higher epoch
                // is safe (and replaying from the lower would be,
                // too -- replay is idempotent). Resync silently.
                st.epoch = pe > re ? pe : re;
                st.clean = false;
                persistMeta(env, st.epoch, 0);
                env.sfence();
            }
            return st;
        }
        if (pOk != rOk) {
            // One copy rotted (an invalid check cannot come from a
            // crash): restore it from the valid twin.
            const std::uint64_t e = pOk ? pe : re;
            const std::uint64_t f = pOk ? pf : rf;
            persistMeta(env, e, f);
            env.sfence();
            noteRepaired(rep, 1);
            st.ok = true;
            st.epoch = e;
            st.clean = (f & shardCleanShutdown) != 0;
            return st;
        }
        // Both copies rotted: nothing to trust.
        noteUnrepairable(rep, 1);
        return st;
    }

    /** Count @p n repaired media faults (counters + report). */
    void
    noteRepaired(RecoveryReport *rep, std::uint64_t n)
    {
        media_.repaired.fetch_add(n, std::memory_order_relaxed);
        if (rep)
            rep->mediaRepaired += n;
    }

    /** Count @p n unrepairable faults (quarantines the shard). */
    void
    noteUnrepairable(RecoveryReport *rep, std::uint64_t n)
    {
        media_.unrepairable.fetch_add(n, std::memory_order_relaxed);
        if (rep)
            rep->mediaUnrepairable += n;
    }

    const StoreConfig &cfg() const { return *ctx_.cfg; }
    SlotTable<Env> &table() { return *ctx_.table; }
    engine::CommitPipeline &pipeline() { return *ctx_.pipeline; }

    StoreContext<Env> ctx_;
    ShardMeta *const meta_;
    ShardMeta *const replica_;
    MediaCounters media_;
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_HH
