/**
 * @file
 * The eager per-op baseline backend of `lp::store`: every mutation
 * is applied to the table and persisted in place with clflushopt +
 * sfence (the Intel PMEM idiom, Section II-A). There is nothing to
 * batch, fold, or replay -- each op is its own durably-committed
 * epoch, which the pipeline models as batchOps = 1 (so the epoch a
 * stage() returns doubles as the shard's op sequence number, and
 * group-commit consumers like lp::server need no special case).
 */

#ifndef LP_STORE_BACKEND_EAGER_HH
#define LP_STORE_BACKEND_EAGER_HH

#include "store/backend.hh"

namespace lp::store
{

template <typename Env>
class EagerBackend : public PersistencyBackend<Env>
{
    using Base = PersistencyBackend<Env>;
    using Base::pipeline;
    using Base::table;

  public:
    /** The base's superblock pair is the only allocation. */
    EagerBackend(const StoreContext<Env> &ctx, bool attach)
        : Base(ctx, attach)
    {
    }

    std::uint64_t
    stage(Env &env, JOp op, std::uint64_t key,
          std::uint64_t value) override
    {
        KvSlot *slot =
            table().applyOp(env, op == JOp::Put, key, value);
        if (slot) {
            env.clflushopt(slot);
            env.sfence();
        }
        env.onRegionCommit();
        auto &pl = pipeline();
        pl.beginEpoch();
        pl.stageOp();
        pl.commitEpoch();
        pl.syncDurable();
        return pl.lastCommitted();
    }

    void
    commitEpoch(Env &env) override
    {
        // Nothing is ever open: each op commits inside stage().
        (void)env;
    }

    std::uint64_t
    recover(Env &env, RecoveryReport &rep) override
    {
        // Every op was persisted in place; the table is already
        // consistent. The superblock pair still carries the clean-
        // shutdown flag and can rot, so it is audited (and repaired
        // from its twin) like every backend's.
        const auto ms = this->auditMeta(env, &rep);
        if (ms.ok) {
            this->persistMeta(env, 0, 0);
            env.sfence();
        }
        // The op-sequence numbering restarts at zero.
        pipeline().rebase(0);
        return 0;
    }

    bool
    verify(Env &env) override
    {
        (void)env;
        return true;
    }
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_EAGER_HH
