/**
 * @file
 * The Lazy Persistency backend of `lp::store`.
 *
 * Mutations append journal records and update a running checksum
 * with PLAIN STORES -- no flush, no fence. Every batchOps mutations
 * close an epoch: the batch's digest is stored (again lazily) into
 * the batch's own journal header, exactly the Figure 8 region-commit
 * idiom with the checksum co-located with its region. Dirty journal
 * lines drain to NVMM by natural cache evictions. Every foldBatches
 * committed batches the shard FOLDS: the journal is pinned with
 * flushes + one fence, the coalesced last-op-per-key effects are
 * applied to the table with Eager Persistency, and the shard's
 * durable watermark (ShardMeta::foldedEpoch) advances. The fold is
 * the Section VI-A periodic flush: it bounds journal space and
 * recovery replay length.
 *
 * Why a journal at all? In-place lazy mutation of live table slots
 * is unsound: a plain store from an UNCOMMITTED batch may drain over
 * the only copy of committed data, and recovery -- which discards
 * the failed batch -- would have nothing to restore the slot from.
 * Lazy Persistency therefore only ever lazily writes APPEND-ONLY
 * bytes (journal records and headers) whose corruption is detected
 * by the checksum and repaired by replay; the table itself is
 * written solely inside eager phases (fold, recovery), so a
 * committed table byte can never be clobbered by an uncommitted lazy
 * store.
 *
 * Media-fault tolerance (docs/repair_design.md). The journal is the
 * only structure whose loss silently loses committed data, so it
 * gets the heaviest protection: the shard's repair::RegionParity
 * fingerprints and XOR-folds every sealed 64B journal region
 * at commit time (plain stores -- they drain with the lines they
 * protect). Batch digests live in the journal headers, so the same
 * parity covers them and they need no replica. The shard superblock
 * pair is the base class's. Crash tears and media faults are
 * disambiguated by the clean-shutdown flag (store/layout.hh):
 * recovery after a PROVEN clean shutdown runs STRICT -- a
 * validation failure there is a media fault, repaired via parity or
 * counted unrepairable (quarantine) -- while recovery after a crash
 * keeps the historical discard semantics and only counts repairs the
 * fingerprints prove.
 *
 * Recovery. Arbitrate the superblock pair for the durable
 * foldedEpoch W and walk the journal from offset 0 expecting epochs
 * W+1, W+2, ... (the BatchJournal::replay walk): check the header
 * tag, recompute the digest over the records that actually reached
 * NVMM, and compare against the digest in the header. On the first
 * validation failure the parity sweep runs once and the position is
 * retried. Accepted batches are replayed into the table with Eager
 * Persistency (Section III-E: recovery uses EP so it always makes
 * forward progress); the walk stops at the first batch that still
 * fails validation -- journal appends are sequential, so durability
 * is prefix-shaped and later batches cannot have committed either.
 * Replay is idempotent and convergent even across crashes *during*
 * fold or recovery because (a) table writers only apply committed
 * ops, (b) deletes tombstone rather than empty slots, and (c) the
 * insert probe scans the whole chain up to the first never-used slot
 * before reusing a tombstone, so a half-drained earlier apply of the
 * same key is always found and reused, never duplicated.
 */

#ifndef LP_STORE_BACKEND_LP_HH
#define LP_STORE_BACKEND_LP_HH

#include <unordered_map>
#include <vector>

#include "ep/pmem_ops.hh"
#include "obs/shard_obs.hh"
#include "repair/parity.hh"
#include "store/backend.hh"

namespace lp::store
{

template <typename Env>
class LpBackend : public PersistencyBackend<Env>
{
    using Base = PersistencyBackend<Env>;
    using Base::cfg;
    using Base::pipeline;
    using Base::table;

  public:
    /** Allocation order after the base's superblock pair: journal,
     *  then its parity. */
    LpBackend(const StoreContext<Env> &ctx, bool attach)
        : Base(ctx, attach),
          journal_(*ctx.arena, journalCapacity(*ctx.cfg)),
          parity_(*ctx.arena, journal_.data(), journal_.dataBytes(),
                  attach),
          acc_(ctx.cfg->checksum)
    {
    }

    std::uint64_t
    stage(Env &env, JOp op, std::uint64_t key,
          std::uint64_t value) override
    {
        auto &pl = pipeline();
        if (!pl.epochOpen()) {
            // Fold first if the journal lacks room for a full batch.
            if (!journal_.roomFor(cfg().batchOps))
                fold(env);
            journal_.open(env, pl.beginEpoch(), acc_);
        }
        const std::uint64_t epoch = pl.openEpoch();
        journal_.append(env, op, key, value, epoch, acc_, ckCost());
        delta_[key] = DeltaVal{op == JOp::Put, value};
        if (pl.stageOp()) {
            commitEpoch(env);
            if (pl.foldDue())
                fold(env);
        }
        return epoch;
    }

    /**
     * Close the open batch: seal the journal header, which stores the
     * batch digest into it, then extend parity coverage over the
     * newly sealed regions -- all with plain stores (the Figure 8
     * commit). No flush, no fence.
     */
    void
    commitEpoch(Env &env) override
    {
        auto &pl = pipeline();
        if (!pl.epochOpen())
            return;
        const std::uint64_t epoch = pl.openEpoch();
        obs::ShardObs *ob = pl.obs();
        // Flow id = the latest request staged into this epoch
        // (captured before pl.commitEpoch() clears it), so one
        // request's trace arc connects through the group commit
        // that made it durable.
        obs::Span span(obs::ringOf(ob), "epoch_commit", epoch,
                       pl.openTraceId());
        obs::ScopedTimer timer(ob ? &ob->commitNs : nullptr);
        journal_.seal(env, std::uint64_t(pl.stagedOps()), epoch, acc_,
                      ckCost());
        parity_.cover(env, epoch, journal_.sealedBytes());
        pl.commitEpoch();
        env.onRegionCommit();
    }

    /**
     * Eager checkpoint of the shard (Section VI-A periodic flush):
     * (a) pin the journal (digests included, they live in the batch
     *     headers) in NVMM, so every batch the fold applies is one
     *     recovery would accept;
     * (b) apply the coalesced last op per key to the table with
     *     Eager Persistency -- one table write per DISTINCT key in
     *     the window, which is where LP's write savings over per-op
     *     flushing comes from on skewed workloads. All of the
     *     window's table stores execute first, then each distinct
     *     dirty block is flushed once (ep::flushBlocksOnce);
     * (c) restart the parity generation (the journal is about to
     *     restart at offset 0) and advance the durable watermark in
     *     both superblock copies.
     * A crash anywhere in between leaves a state recover() handles:
     * before (c) the watermark is old and every applied batch is
     * durably committed, so replay just re-applies them.
     */
    void
    fold(Env &env) override
    {
        auto &pl = pipeline();
        LP_ASSERT(!pl.epochOpen(), "fold with an open batch");
        if (journal_.tail() == 0)
            return;
        obs::ShardObs *ob = pl.obs();
        obs::Span span(obs::ringOf(ob), "fold", pl.lastCommitted());
        obs::ScopedTimer timer(ob ? &ob->foldNs : nullptr);
        journal_.flushAll(env);
        env.sfence();
        std::vector<std::uintptr_t> blocks;
        for (const auto &[key, dv] : delta_) {
            KvSlot *slot =
                table().applyOp(env, dv.isPut, key, dv.value);
            if (slot)
                blocks.push_back(ep::blockIndexOf(slot));
        }
        ep::flushBlocksOnce(env, blocks);
        env.sfence();
        parity_.resetGeneration(env, pl.lastCommitted());
        this->persistMeta(env, pl.lastCommitted(), 0);
        env.sfence();
        pl.noteFold();
        journal_.reset();
        delta_.clear();
        scrubCursor_ = 0;
        scrubGroupClean_ = true;
    }

    std::uint64_t
    recover(Env &env, RecoveryReport &rep) override
    {
        const auto ms = this->auditMeta(env, &rep);
        if (!ms.ok) {
            // Both superblock copies rotted: the fold watermark is
            // gone, so nothing in the journal can be validated
            // against a known base. The folded table image itself is
            // intact; leave it, quarantine the shard (auditMeta
            // already counted the unrepairable fault).
            return resetShard(env, 0);
        }
        const bool strict = ms.clean;
        const std::uint64_t base = ms.epoch;
        const bool hdrOk = parity_.loadDurable(env);
        if (strict && !hdrOk) {
            // No crash happened, so the parity header was rotted: a
            // media fault. It self-heals (resetShard starts a fresh
            // generation below) but costs us the sealed-epoch
            // watermark, so the lost-batch check cannot run.
            this->noteRepaired(&rep, 1);
        }
        // Media-repair hook for the replay walk: sweep the covered
        // journal prefix once, restoring every region whose parity
        // reconstruction reproduces its fingerprint.
        auto repairFn = [&]() {
            const repair::SweepResult res = parity_.repairCovered(env);
            if (res.repaired) {
                env.sfence();
                this->noteRepaired(&rep, res.repaired);
            }
            return res.repaired > 0;
        };
        // Committed batches repair the table with Eager Persistency
        // (Section III-E); like the fold, all of a batch's stores
        // execute first, then one flush per distinct block.
        std::vector<std::uintptr_t> blocks;
        const std::uint64_t committed = journal_.replay(
            env, cfg(), base,
            [&](JEntry &je) {
                KvSlot *slot =
                    table().applyOp(env, je.op() == JOp::Put,
                                    env.ld(&je.key),
                                    env.ld(&je.value));
                if (slot)
                    blocks.push_back(ep::blockIndexOf(slot));
            },
            [&]() {
                ep::flushBlocksOnce(env, blocks);
                env.sfence();
            },
            repairFn, rep);
        if (strict && hdrOk && committed < parity_.lastSealedEpoch()) {
            // Clean shutdown proved every sealed epoch was durable,
            // yet replay could not validate up to the sealed
            // watermark: committed batches are LOST to media faults
            // parity could not undo. Quarantine.
            this->noteUnrepairable(&rep, 1);
        }
        return resetShard(env, committed);
    }

    bool
    verify(Env &env) override
    {
        auto &pl = pipeline();
        if (pl.epochOpen())
            return false;  // commit or checkpoint before auditing
        return journal_.auditCommitted(env, cfg(), pl.foldedEpoch(),
                                       pl.lastCommitted());
    }

    /**
     * Online scrub: advance a region cursor over the covered journal
     * prefix, validating fingerprints and repairing from parity.
     * The store is LIVE here -- no crash ambiguity -- so every
     * mismatch is a media fault: repairs and unrepairable regions
     * both count. When a parity group's covered regions all verified
     * clean, the group's parity block itself is recomputed and
     * rewritten if it diverged (the "parity page is the corrupt one"
     * case). Reaching the end of the covered prefix audits the
     * superblock pair and completes a pass.
     */
    std::size_t
    scrub(Env &env, std::size_t maxRegions) override
    {
        if (this->quarantined())
            return 0;
        const std::size_t covered = parity_.coveredRegions();
        if (scrubCursor_ >= covered) {
            // Pass complete (or a fold restarted the generation):
            // close out with the superblock audit and wrap.
            this->auditMeta(env, nullptr);
            this->media_.scrubPasses.fetch_add(
                1, std::memory_order_relaxed);
            scrubCursor_ = 0;
            scrubGroupClean_ = true;
            return 0;
        }
        std::size_t done = 0;
        bool wrote = false;
        while (done < maxRegions && scrubCursor_ < covered) {
            const std::size_t r = scrubCursor_++;
            switch (parity_.repairRegion(env, r)) {
              case repair::RegionState::Clean:
                break;
              case repair::RegionState::Repaired:
                this->noteRepaired(nullptr, 1);
                wrote = true;
                break;
              case repair::RegionState::Unrepairable:
                this->noteUnrepairable(nullptr, 1);
                scrubGroupClean_ = false;
                break;
            }
            ++done;
            const bool groupEnd =
                (r + 1) % repair::groupRegions == 0 ||
                r + 1 == covered;
            if (groupEnd) {
                if (scrubGroupClean_ &&
                    parity_.scrubGroupParity(env,
                                             r / repair::groupRegions)) {
                    this->noteRepaired(nullptr, 1);
                    wrote = true;
                }
                scrubGroupClean_ = true;
            }
            if (this->quarantined())
                break;
        }
        if (wrote)
            env.sfence();
        this->media_.scrubRegions.fetch_add(done,
                                            std::memory_order_relaxed);
        return done;
    }

    FaultSurface
    faultSurface() const override
    {
        FaultSurface fs = Base::faultSurface();
        fs.journal = journal_.data();
        fs.journalBytes = journal_.dataBytes();
        fs.sealedBytes = journal_.sealedBytes();
        fs.parity = parity_.parityBlocks();
        fs.parityBytes = parity_.parityBytes();
        fs.parityHashes = parity_.hashes();
        fs.parityHashBytes = parity_.hashBytes();
        fs.parityHeader = parity_.header();
        return fs;
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
    /**
     * Recovery epilogue: restate the superblock pair at @p committed
     * with the clean flag CLEARED (we are running again), restart
     * the journal/parity generation, and rebase the pipeline.
     * Returns @p committed.
     */
    std::uint64_t
    resetShard(Env &env, std::uint64_t committed)
    {
        if (!this->quarantined())
            this->persistMeta(env, committed, 0);
        parity_.resetGeneration(env, committed);
        env.sfence();
        journal_.reset();
        acc_.reset();
        delta_.clear();
        scrubCursor_ = 0;
        scrubGroupClean_ = true;
        pipeline().rebase(committed);
        return committed;
    }

    std::uint64_t
    ckCost() const
    {
        return core::ChecksumAcc::updateCost(cfg().checksum);
    }

    BatchJournal<Env> journal_;
    repair::RegionParity<Env> parity_;
    core::ChecksumAcc acc_;

    /** Coalesced last op per key since the last fold. */
    std::unordered_map<std::uint64_t, DeltaVal> delta_;

    /// @name Online-scrub walk state (owner thread only).
    /// @{
    std::size_t scrubCursor_ = 0;
    bool scrubGroupClean_ = true;
    /// @}
};

} // namespace lp::store

#endif // LP_STORE_BACKEND_LP_HH
