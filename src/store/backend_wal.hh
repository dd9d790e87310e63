/**
 * @file
 * The write-ahead-logging baseline backend of `lp::store`: the same
 * batches the LP backend journals are instead grouped into
 * undo-logged durable transactions (Figure 2) over the table.
 *
 * Probe targets depend on earlier ops in the same batch, so a batch
 * is first PLANNED: each op is resolved against a scratch view of
 * the table (raw host writes, recording pre- and post-images), then
 * the scratch writes are reverted and the real mutation runs under a
 * WalTx. The shard's durable epoch watermark joins the transaction,
 * making "which batches committed" exact for recovery verification.
 */

#ifndef LP_STORE_BACKEND_WAL_HH
#define LP_STORE_BACKEND_WAL_HH

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ep/wal.hh"
#include "obs/shard_obs.hh"
#include "store/backend.hh"

namespace lp::store
{

template <typename Env>
class WalBackend : public PersistencyBackend<Env>
{
    using Base = PersistencyBackend<Env>;
    using Base::pipeline;
    using Base::table;

  public:
    /** Allocation order after the base's superblock pair: the undo
     *  log area, sized for up to two table words per op plus the six
     *  superblock words (epoch/flags/check on both copies) and
     *  slack. */
    WalBackend(const StoreContext<Env> &ctx, bool attach)
        : Base(ctx, attach),
          wal_(*ctx.arena, 2 * std::size_t(ctx.cfg->batchOps) + 8,
               attach)
    {
    }

    std::uint64_t
    stage(Env &env, JOp op, std::uint64_t key,
          std::uint64_t value) override
    {
        auto &pl = pipeline();
        if (!pl.epochOpen())
            pl.beginEpoch();
        const std::uint64_t epoch = pl.openEpoch();
        pending_.push_back(PendingOp{op, key, value});
        delta_[key] = DeltaVal{op == JOp::Put, value};
        env.tick(4);
        if (pl.stageOp())
            commitEpoch(env);
        return epoch;
    }

    /** Commit one batch as an undo-logged durable transaction. */
    void
    commitEpoch(Env &env) override
    {
        auto &pl = pipeline();
        if (pending_.empty())
            return;
        const std::uint64_t epoch = pl.openEpoch();
        obs::ShardObs *ob = pl.obs();
        obs::Span span(obs::ringOf(ob), "wal_commit", epoch,
                       pl.openTraceId());
        obs::ScopedTimer timer(ob ? &ob->commitNs : nullptr);
        struct PlanWrite
        {
            std::uint64_t *ptr;
            std::uint64_t old;
            std::uint64_t neu;
        };
        std::vector<PlanWrite> plan;
        std::size_t claims = 0;
        auto planStore = [&plan](std::uint64_t *p, std::uint64_t v) {
            plan.push_back(PlanWrite{p, *p, v});
            *p = v;
        };
        for (const PendingOp &op : pending_) {
            const auto r = table().applyOpWith(
                env, op.op == JOp::Put, op.key, op.value, planStore);
            if (r.claimedEmpty)
                ++claims;
        }
        // The watermark advance joins the transaction -- on BOTH
        // superblock copies, check words restated so the pair stays
        // valid at every durable point.
        for (ShardMeta *c : {this->meta_, this->replica_}) {
            planStore(&c->foldedEpoch, epoch);
            planStore(&c->flags, 0);
            planStore(&c->check, repair::shardMetaCheck(epoch, 0));
        }
        for (auto it = plan.rbegin(); it != plan.rend(); ++it)
            *(it->ptr) = it->old;

        ep::WalTx<Env> tx(env, wal_);
        // Log only the first pre-image of each word: applyUndo()
        // replays the log forward, so a later duplicate would win and
        // restore an intra-batch intermediate value.
        std::unordered_set<std::uint64_t *> logged;
        for (const PlanWrite &w : plan)
            if (logged.insert(w.ptr).second)
                tx.logKnown(w.ptr, w.old);
        tx.seal();
        for (const PlanWrite &w : plan)
            env.st(w.ptr, w.neu);
        tx.commit();

        for (std::size_t c = 0; c < claims; ++c)
            table().noteClaim();
        pl.commitEpoch();
        pl.syncDurable();
        pending_.clear();
        delta_.clear();
        env.onRegionCommit();
    }

    std::uint64_t
    recover(Env &env, RecoveryReport &rep) override
    {
        if (ep::applyUndo(env, wal_)) {
            rep.walUndone = true;
            ++rep.batchesDiscarded;
        }
        // The undo pass has restored any torn transaction, so the
        // superblock pair is back at a transaction boundary; an
        // invalid check word now is a media fault.
        const auto ms = this->auditMeta(env, &rep);
        pending_.clear();
        delta_.clear();
        if (!ms.ok) {
            pipeline().rebase(0);
            return 0;
        }
        const std::uint64_t committed = ms.epoch;
        this->persistMeta(env, committed, 0);
        env.sfence();
        pipeline().rebase(committed);
        return committed;
    }

    /** No armed (sealed-but-uncommitted) transaction may survive. */
    bool
    verify(Env &env) override
    {
        (void)env;
        return !wal_.interrupted();
    }

    std::optional<DeltaVal>
    staged(Env &env, std::uint64_t key) override
    {
        const auto it = delta_.find(key);
        if (it == delta_.end())
            return std::nullopt;
        env.tick(4);
        return it->second;
    }

    void
    mergeStaged(std::map<std::uint64_t, std::uint64_t> &out)
        const override
    {
        for (const auto &[k, dv] : delta_) {
            if (dv.isPut)
                out[k] = dv.value;
            else
                out.erase(k);
        }
    }

  private:
    struct PendingOp
    {
        JOp op;
        std::uint64_t key;
        std::uint64_t value;
    };

    ep::WalArea wal_;

    /** This batch's ops, in arrival order (for the plan phase). */
    std::vector<PendingOp> pending_;

    /** Coalesced last op per key in the open batch. */
    std::unordered_map<std::uint64_t, DeltaVal> delta_;
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_WAL_HH
