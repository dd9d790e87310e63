/**
 * @file
 * txn::TxnKv -- the embedded (single-threaded) transactional facade
 * over a multi-shard KvStore. A driver: it runs the commit protocol
 * inline on one txn::Participant per shard -- the code the server's
 * workers run -- with the DecisionLog append (the commit point)
 * between prepare and apply, and crash hooks (Step) between the
 * steps, so the crash matrix can kill it at each one and the sim can
 * account every persistent store.
 *
 * A txn::fastPath() transaction stages its writes as one epoch, with
 * no prepare and no decision record: that is where LP's commit
 * latency win over WAL must survive. Any other (or forceGeneral)
 * prepares per participant, appends the decision, then applies
 * lazily; a PREPARE table still full after its pressure valve aborts
 * it (Result::committed false). Gets see the transaction's own
 * earlier writes.
 *
 * After a crash (CrashException from the hook or the sim), callers
 * MUST recover() before using the instance again, mirroring the
 * KvStore contract.
 */

#ifndef LP_TXN_TXN_KV_HH
#define LP_TXN_TXN_KV_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "store/kv_store.hh"
#include "txn/decision_log.hh"
#include "txn/participant.hh"

namespace lp::txn
{

template <typename Env>
class TxnKv
{
  public:
    struct Config
    {
        store::StoreConfig store;
        std::size_t prepareSlots = 64;     ///< per shard
        std::size_t decisionEntries = 1024;
    };

    /** Arena budget: store + per-shard prepare tables + decision
     *  ring, in the exact allocation order the constructor uses. */
    static std::size_t
    arenaBytes(const Config &c)
    {
        return store::storeArenaBytes(c.store) +
               std::size_t(c.store.shards) *
                   prepareLogBytes(c.prepareSlots) +
               decisionLogBytes(c.decisionEntries);
    }

    /** Commit-protocol steps the crash hook fires at. */
    enum class Step
    {
        PrePrepare,    ///< locks held, writes resolved, nothing durable
        MidPrepare,    ///< first participant prepared, others not
        PostPrepare,   ///< all votes durable, no decision
        PostDecision,  ///< decision durable, nothing applied
        MidApply,      ///< first write applied (lazily)
        PreMarker,     ///< all writes applied, no marker
        PostMarker,    ///< all markers durable
    };

    /** May throw pmem::CrashException to simulate dying there. */
    using Hook = std::function<void(Step)>;

    struct Result
    {
        bool committed = false;
        /** One {found, value} per Get, in op order. */
        std::vector<std::pair<bool, std::uint64_t>> reads;
    };

    TxnKv(pmem::PersistentArena &arena, const Config &cfg,
          store::Backend backend, bool attach = false)
        : cfg_(cfg), kv_(arena, cfg.store, backend, attach),
          backend_(backend)
    {
        for (int s = 0; s < cfg.store.shards; ++s)
            parts_.emplace_back(arena, kv_, s, cfg.prepareSlots, attach,
                                s == 0 ? nullptr : &parts_.front());
        dlog_.emplace(arena, cfg.decisionEntries, attach);
    }

    store::KvStore<Env> &kv() { return kv_; }

    /**
     * Execute one transaction. @p forceGeneral routes even
     * single-shard transactions through prepare/decision (the crash
     * matrix uses this to reach every protocol step).
     */
    Result
    run(Env &env, const std::vector<TxnOp> &ops, const Hook &hook = {},
        bool forceGeneral = false)
    {
        LP_ASSERT(!ops.empty() && ops.size() <= maxTxnWriteOps,
                  "transaction op count out of range");
        const TxnId id = nextTxn_++;
        TxnPlan plan;
        plan.ops = ops;
        plan.split([&](std::uint64_t key) { return kv_.shardOf(key); });
        LockTable::Events ev;
        for (const TxnPart &part : plan.parts) {
            std::size_t next = 0;
            LP_ASSERT(participant(part).lock(id, part, next, ev) ==
                          Acquire::Granted,
                      "embedded txn lock conflict (single-threaded)");
        }
        for (TxnPart &part : plan.parts)
            participant(part).resolve(env, plan, part);
        // Prepare and apply in shard order.
        std::sort(plan.parts.begin(), plan.parts.end(),
                  [](const TxnPart &a, const TxnPart &b) {
                      return a.shard < b.shard;
                  });

        if (hook)
            hook(Step::PrePrepare);

        Result res;
        res.committed = true;
        if (plan.nWrites > 0) {
            if (!forceGeneral &&
                fastPath(plan, backend_, cfg_.store.batchOps))
                participant(plan.parts[0])
                    .commitFast(env, plan.parts[0].writes,
                                [](std::uint64_t) {});
            else
                res.committed = commitGeneral(env, id, plan, hook);
        }
        for (const TxnPart &part : plan.parts)
            participant(part).release(id, part, ev);
        LP_ASSERT(ev.granted.empty() && ev.died.empty(),
                  "embedded txn released onto waiters");
        if (plan.nWrites > 0)
            sweepFrees(env);
        if (res.committed)
            for (const TxnRead &r : plan.reads)
                res.reads.emplace_back(r.found, r.value);
        return res;
    }

    /**
     * Recover after a crash: journal replay, decision-index rebuild,
     * the txn decision rules per shard, and a reset of all volatile
     * protocol state (locks, pending frees, id counter).
     */
    TxnRecoveryReport
    recover(Env &env)
    {
        const auto kvRep = kv_.recover(env);
        for (auto &p : parts_)
            p.reset();
        const std::uint64_t decMax = dlog_->scan(env);
        TxnRecoveryReport rep;
        for (auto &p : parts_)
            rep.merge(p.recover(
                env, kvRep.committedEpochs[std::size_t(p.shard())],
                dlog_->index()));
        rep.maxTxnId = std::max(rep.maxTxnId, decMax);
        nextTxn_ = rep.maxTxnId + 1;
        return rep;
    }

    /** Full durability plus a pending-slot-free sweep. */
    void
    checkpoint(Env &env)
    {
        kv_.checkpoint(env);
        sweepFrees(env);
    }

    /** Prepare slots awaiting their durability gate (tests). */
    std::size_t
    pendingSlotFrees() const
    {
        return parts_.front().pendingFrees();
    }

  private:
    /** The general path. False: a PREPARE table stayed full, and the
     *  transaction rolled back. */
    bool
    commitGeneral(Env &env, TxnId id, TxnPlan &plan, const Hook &hook)
    {
        const auto step = [&](Step s) {
            if (hook)
                hook(s);
        };
        std::vector<TxnPart *> writers;
        for (TxnPart &part : plan.parts)
            if (!part.writes.empty())
                writers.push_back(&part);

        for (TxnPart *part : writers) {
            if (!participant(*part).prepare(env, id, *part)) {
                for (TxnPart *p : writers)
                    participant(*p).rollBack(env, *p);
                return false;
            }
            if (part == writers.front() && writers.size() > 1)
                step(Step::MidPrepare);
        }
        step(Step::PostPrepare);

        dlog_->append(env, id);  // THE commit point
        step(Step::PostDecision);

        // Every participant applies before any marker, so the crash
        // matrix can land between the two.
        std::vector<std::uint64_t> epochs;
        bool firstApply = true;
        for (TxnPart *part : writers)
            epochs.push_back(participant(*part).stage(
                env, part->writes, [&](std::uint64_t) {
                    if (firstApply)
                        step(Step::MidApply);
                    firstApply = false;
                }));
        step(Step::PreMarker);
        for (std::size_t i = 0; i < writers.size(); ++i)
            participant(*writers[i])
                .markApplied(env, writers[i]->slot, epochs[i]);
        step(Step::PostMarker);
        return true;
    }

    Participant<Env> &
    participant(const TxnPart &part)
    {
        return parts_[std::size_t(part.shard)];
    }

    /** The participants share one free list: one sweep covers all. */
    void sweepFrees(Env &env) { parts_.front().sweepFrees(env); }

    Config cfg_;
    store::KvStore<Env> kv_;
    store::Backend backend_;
    std::deque<Participant<Env>> parts_;  ///< one per shard
    std::optional<DecisionLog<Env>> dlog_;
    TxnId nextTxn_ = 1;
};

} // namespace lp::txn

#endif // LP_TXN_TXN_KV_HH
