/**
 * @file
 * txn::Participant -- one shard's side of the cross-shard commit
 * protocol, and the only implementation of its steps (lock, resolve,
 * commitFast or prepare, apply or rollBack, release, sweepFrees; see
 * docs/txn_design.md) and of its crash recovery, which re-runs the
 * apply step. The embedded TxnKv and the server's shard workers both
 * drive it. Single writer per shard, like everything behind an Env.
 */

#ifndef LP_TXN_PARTICIPANT_HH
#define LP_TXN_PARTICIPANT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/kv_store.hh"
#include "txn/decision_log.hh"
#include "txn/lock_table.hh"
#include "txn/prepare_log.hh"
#include "txn/txn_op.hh"

namespace lp::txn
{

/** One participant shard's slice of a transaction. */
struct TxnPart
{
    int shard = 0;
    std::vector<std::uint32_t> ops;  ///< indices into TxnPlan::ops

    /** Lock plan: distinct keys ascending, write if any mutation. */
    std::vector<std::pair<std::uint64_t, LockMode>> locks;

    // Filled by the participant:
    bool prepared = false;
    std::size_t slot = 0;  ///< PREPARE slot (prepared with writes)
    std::vector<WriteOp> writes;  ///< resolved write-set
};

/** A transaction split into participant parts. */
struct TxnPlan
{
    std::vector<TxnOp> ops;      ///< op order
    std::vector<int> readSlot;   ///< per op: index into reads, or -1
    std::vector<TxnRead> reads;  ///< one slot per Get, op order
    std::vector<TxnPart> parts;  ///< in order of first appearance
    std::size_t nWrites = 0;     ///< mutation ops

    /**
     * Split ops into one part per shard (@p shardOf maps a key to its
     * shard; op order kept within a part), allot the read slots, and
     * build each part's lock plan.
     */
    template <typename ShardOf>
    void
    split(ShardOf &&shardOf)
    {
        readSlot.assign(ops.size(), -1);
        std::unordered_map<int, std::size_t> partOf;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const TxnOp &op = ops[i];
            const int shard = shardOf(op.key);
            const auto [it, fresh] =
                partOf.try_emplace(shard, parts.size());
            if (fresh) {
                parts.emplace_back();
                parts.back().shard = shard;
            }
            TxnPart &part = parts[it->second];
            part.ops.push_back(std::uint32_t(i));
            if (op.kind == TxnOp::Kind::Get) {
                readSlot[i] = int(reads.size());
                reads.emplace_back();
            } else {
                ++nWrites;
            }
        }
        for (TxnPart &part : parts) {
            std::map<std::uint64_t, LockMode> modes;
            for (const auto i : part.ops) {
                LockMode &m = modes[ops[i].key];
                if (ops[i].kind != TxnOp::Kind::Get)
                    m = LockMode::Write;
            }
            part.locks.assign(modes.begin(), modes.end());
        }
    }
};

/** What one participant's crash recovery did. */
struct TxnRecoveryReport
{
    std::uint64_t slotsScanned = 0;
    std::uint64_t rolledForward = 0;  ///< committed, applies re-done
    std::uint64_t rolledBack = 0;     ///< undecided or torn votes freed
    std::uint64_t skipped = 0;        ///< committed and already durable
    std::uint64_t opsReplayed = 0;    ///< individual writes re-applied
    std::uint64_t maxTxnId = 0;       ///< for reseeding the id counter

    void
    merge(const TxnRecoveryReport &o)
    {
        slotsScanned += o.slotsScanned;
        rolledForward += o.rolledForward;
        rolledBack += o.rolledBack;
        skipped += o.skipped;
        opsReplayed += o.opsReplayed;
        maxTxnId = std::max(maxTxnId, o.maxTxnId);
    }
};

/**
 * The fast-path rule: one participant shard (read-only shards count),
 * and no writes, or a batching backend whose epoch holds them all --
 * its epoch atomicity is then the transaction's. The eager backend
 * persists per op, so it cannot make a write-set atomic alone.
 */
inline bool
fastPath(const TxnPlan &plan, store::Backend backend, int batchOps)
{
    return plan.parts.size() == 1 &&
           (plan.nWrites == 0 ||
            (backend != store::Backend::EagerPerOp &&
             plan.nWrites <= std::size_t(batchOps)));
}

template <typename Env>
class Participant
{
  public:
    /**
     * Shard @p shard of @p kv, with a PREPARE table of @p slots taken
     * from @p arena. Participants of one multi-shard store pass the
     * first as @p shareFrees: one sweep (and one pressure valve) then
     * frees every shard's eligible slots, in apply order -- the order
     * the simulated machine charges those stores in.
     */
    Participant(pmem::PersistentArena &arena, store::KvStore<Env> &kv,
                int shard, std::size_t slots, bool attach,
                Participant *shareFrees = nullptr)
        : kv_(kv), shard_(shard), plog_(arena, slots, attach),
          frees_(shareFrees ? shareFrees->frees_ : &ownFrees_)
    {
    }

    Participant(const Participant &) = delete;
    Participant &operator=(const Participant &) = delete;

    int shard() const { return shard_; }

    /** Applied slots awaiting their durability gate (tests). */
    std::size_t pendingFrees() const { return frees_->size(); }

    /**
     * Drive @p part's lock plan from index @p next. Waiting: queued
     * on locks[next], resume from next + 1 once granted. Die: the
     * locks held so far are released into @p ev.
     */
    Acquire
    lock(TxnId id, const TxnPart &part, std::size_t &next,
         LockTable::Events &ev)
    {
        for (; next < part.locks.size(); ++next) {
            const auto &[key, mode] = part.locks[next];
            const Acquire got = locks_.acquire(id, key, mode);
            if (got == Acquire::Granted)
                continue;
            if (got == Acquire::Die)
                release(id, part, ev, next);
            return got;
        }
        return Acquire::Granted;
    }

    /**
     * Drop the first @p held locks of @p part's plan (default: all).
     * A prepared part stops counting as unapplied: its apply or
     * roll-back has run.
     */
    void
    release(TxnId id, const TxnPart &part, LockTable::Events &ev,
            std::size_t held = ~std::size_t{0})
    {
        held = std::min(held, part.locks.size());
        for (std::size_t i = 0; i < held; ++i)
            locks_.release(id, part.locks[i].first, ev);
        if (holdsSlot(part))
            --unapplied_;
    }

    /**
     * Locks held: run @p part's ops in order against an overlay
     * (read-your-writes, Add deltas made concrete, last write wins),
     * filling @p plan's read slots and the part's write-set in
     * first-write order.
     */
    void
    resolve(Env &env, TxnPlan &plan, TxnPart &part)
    {
        std::unordered_map<std::uint64_t,
                           std::optional<std::uint64_t>>
            overlay;
        std::vector<std::uint64_t> writeOrder;
        const auto current =
            [&](std::uint64_t key) -> std::optional<std::uint64_t> {
            const auto it = overlay.find(key);
            if (it != overlay.end())
                return it->second;
            return kv_.get(env, key);
        };
        for (const auto i : part.ops) {
            const TxnOp &op = plan.ops[i];
            if (op.kind != TxnOp::Kind::Get && !overlay.contains(op.key))
                writeOrder.push_back(op.key);
            switch (op.kind) {
              case TxnOp::Kind::Get: {
                const auto v = current(op.key);
                plan.reads[std::size_t(plan.readSlot[i])] =
                    TxnRead{v.has_value(), v.value_or(0)};
                break;
              }
              case TxnOp::Kind::Put:
                overlay[op.key] = op.value;
                break;
              case TxnOp::Kind::Del:
                overlay[op.key] = std::nullopt;
                break;
              case TxnOp::Kind::Add:
                overlay[op.key] = current(op.key).value_or(0) + op.value;
                break;
            }
        }
        for (const auto key : writeOrder) {
            const auto &val = overlay[key];
            part.writes.push_back(
                WriteOp{key, val.value_or(0), !val.has_value()});
        }
    }

    /** Stage @p ws lazily, calling @p onWrite(epoch) after each
     *  write; returns the last write's epoch. */
    template <typename OnWrite>
    std::uint64_t
    stage(Env &env, const std::vector<WriteOp> &ws, OnWrite &&onWrite)
    {
        std::uint64_t epoch = 0;
        for (const WriteOp &w : ws) {
            epoch = w.del ? kv_.del(env, w.key)
                          : kv_.put(env, w.key, w.value);
            onWrite(epoch);
        }
        return epoch;
    }

    /**
     * Fast path: stage @p ws as one epoch, returned; the transaction
     * is durable, and its locks may go, once it commits. Pre-flush
     * so the write-set cannot straddle a seal (staging auto-commits
     * WITH the filling op, so staged + writes <= batchOps fits).
     */
    template <typename OnWrite>
    std::uint64_t
    commitFast(Env &env, const std::vector<WriteOp> &ws,
               OnWrite &&onWrite)
    {
        const engine::CommitPipeline &pl = kv_.pipeline(shard_);
        if (pl.stagedOps() > 0 &&
            pl.stagedOps() + ws.size() >
                std::size_t(kv_.config().batchOps))
            kv_.commitBatches(env);
        return stage(env, ws, onWrite);
    }

    /**
     * Vote: durably publish @p part's write-set in a PREPARE slot (a
     * read-only part needs none). False when the table is still full
     * after the pressure valve: the caller aborts.
     */
    bool
    prepare(Env &env, TxnId id, TxnPart &part)
    {
        if (!part.writes.empty()) {
            std::size_t slot = plog_.alloc(env);
            if (slot == PrepareLog<Env>::npos) {
                // Pressure valve: a checkpoint makes every gated free
                // eligible; then retry once.
                kv_.checkpoint(env);
                sweepFrees(env);
                slot = plog_.alloc(env);
            }
            if (slot == PrepareLog<Env>::npos)
                return false;
            plog_.publish(env, slot, id, part.writes.data(),
                          part.writes.size());
            part.slot = slot;
            ++unapplied_;
        }
        part.prepared = true;
        return true;
    }

    /**
     * Durably mark @p slot applied at @p epoch, then queue its free.
     * Runs before the locks go: once unlocked keys are visible, a
     * crash must skip the slot, never re-apply it.
     */
    void
    markApplied(Env &env, std::size_t slot, std::uint64_t epoch)
    {
        plog_.markApplied(env, slot, epoch);
        frees_->push_back(SlotFree{&plog_, shard_, slot, epoch});
    }

    /** Commit decided: stage @p part's writes lazily (the decision
     *  record makes them recoverable), then mark the slot applied. */
    template <typename OnWrite>
    void
    apply(Env &env, const TxnPart &part, OnWrite &&onWrite)
    {
        if (holdsSlot(part))
            markApplied(env, part.slot,
                        stage(env, part.writes, onWrite));
    }

    /** Abort decided: free the vote. Lazily -- a torn free still
     *  reads as prepared-undecided, which rolls back again. */
    void
    rollBack(Env &env, const TxnPart &part)
    {
        if (holdsSlot(part))
            plog_.free(env, part.slot);
    }

    /**
     * Free applied slots whose marker epoch their shard made durable.
     * The gate is the pipeline's durable watermark, not the
     * superblock's: they agree for LP/WAL, but only the pipeline's
     * advances for the eager backend, which never folds.
     */
    void
    sweepFrees(Env &env)
    {
        std::erase_if(*frees_, [&](const SlotFree &f) {
            if (kv_.pipeline(f.shard).foldedEpoch() < f.epoch)
                return false;
            f.log->free(env, f.slot);
            return true;
        });
    }

    /** A scan from @p start must wait: a write lock in range may
     *  cover a prepared-but-unapplied write (half a transaction). */
    bool
    scanMustWait(std::uint64_t start) const
    {
        return unapplied_ > 0 && locks_.anyWriteLockedAtOrAbove(start);
    }

    /** A plain put/del of @p key must wait: between a resolve and
     *  its apply, the apply would clobber it (a lost update). */
    bool
    writeMustWait(std::uint64_t key) const
    {
        return unapplied_ > 0 && locks_.writeLocked(key);
    }

    /**
     * Crash recovery of this shard's PREPARE table, once journal
     * recovery has left the shard at committed epoch @p watermark
     * (W). Per slot, against the coordinator's decision index @p dec:
     *
     *   checksum invalid (a torn vote) ......... ROLL BACK
     *   valid, no decision record .............. ROLL BACK
     *   decided, marker valid and epoch <= W ... SKIP
     *   decided, no marker or epoch > W ........ ROLL FORWARD
     *
     * SKIP exists because re-applying would clobber a later committed
     * plain put to the same keys, which journal replay restored.
     * Roll-forwards are the apply step, in decision order: two
     * committed transactions overlap only if the second locked after
     * the first released, after its decision. A checkpoint then makes
     * them durable and frees their slots. Frees are lazy: a re-crash
     * that loses one re-runs the (idempotent) analysis.
     */
    TxnRecoveryReport
    recover(Env &env, std::uint64_t watermark, const DecisionIndex &dec)
    {
        TxnRecoveryReport rep;
        struct Forward
        {
            std::uint64_t seq;
            std::size_t slot;
            std::size_t nOps;
        };
        std::vector<Forward> forward;
        std::vector<std::size_t> skipped;
        for (std::size_t i = 0; i < plog_.size(); ++i) {
            const auto v = plog_.inspect(env, i);
            if (v.txnid == 0)
                continue;
            ++rep.slotsScanned;
            const auto it = dec.seqOf.find(v.txnid);
            if (!v.valid || it == dec.seqOf.end()) {
                plog_.free(env, i);  // torn, or never decided
                ++rep.rolledBack;
            } else if (v.applied && v.appliedEpoch <= watermark) {
                skipped.push_back(i);
                ++rep.skipped;
            } else {
                forward.push_back(Forward{it->second, i, v.nOps});
            }
            if (v.valid)
                rep.maxTxnId = std::max(rep.maxTxnId, v.txnid);
        }
        std::sort(forward.begin(), forward.end(),
                  [](const Forward &a, const Forward &b) {
                      return a.seq < b.seq;
                  });
        for (const Forward &f : forward) {
            std::vector<WriteOp> ws;
            for (std::size_t i = 0; i < f.nOps; ++i)
                ws.push_back(plog_.op(env, f.slot, i));
            const auto replayed = [&](std::uint64_t) {
                ++rep.opsReplayed;
            };
            markApplied(env, f.slot, stage(env, ws, replayed));
            ++rep.rolledForward;
        }
        if (!forward.empty()) {
            kv_.checkpoint(env);
            sweepFrees(env);
        }
        for (const auto i : skipped)
            plog_.free(env, i);
        return rep;
    }

    /** Drop all volatile protocol state (after a crash). */
    void
    reset()
    {
        locks_ = LockTable{};
        frees_->clear();
        unapplied_ = 0;
    }

  private:
    /** An applied PREPARE slot awaiting its durability gate. */
    struct SlotFree
    {
        PrepareLog<Env> *log;
        int shard;
        std::size_t slot;
        std::uint64_t epoch;
    };

    static bool
    holdsSlot(const TxnPart &part)
    {
        return part.prepared && !part.writes.empty();
    }

    store::KvStore<Env> &kv_;
    int shard_;
    PrepareLog<Env> plog_;
    LockTable locks_;

    /** Prepared parts on this shard not yet applied or rolled back. */
    int unapplied_ = 0;

    std::vector<SlotFree> ownFrees_;
    std::vector<SlotFree> *frees_;  ///< ownFrees_ or a sibling's
};

} // namespace lp::txn

#endif // LP_TXN_PARTICIPANT_HH
