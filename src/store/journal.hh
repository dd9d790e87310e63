/**
 * @file
 * Per-shard batch journal of the `lp::store` key-value store: record
 * format, append/seal (the Figure 8 region-commit idiom of plain
 * stores), and the validated replay walk recovery runs.
 *
 * Journal entries are packed at 24B for write density and MAY
 * straddle blocks: a torn (half-persisted) entry is precisely what
 * the per-batch checksum detects, so density costs nothing in
 * safety. The journal array restarts at offset 0 after each fold;
 * the batch's epoch rides in every record's tag so a stale record
 * from an earlier generation can never be mistaken for part of a
 * newer batch.
 *
 * Each batch's digest lives in its own header (the value word),
 * stored at seal: the commit dirties no line beyond the ones its
 * records already dirty (InCLL's co-location, PAPERS.md). A torn or
 * stale header fails the tag or digest check exactly as a missing
 * digest would, and a rotted header digest is a media fault in the
 * parity-covered journal, repaired like any other journal byte.
 *
 * The journal owns the CURSORS (tail, open-batch header index) and
 * the store/checksum mechanics; epoch numbering and batch/fold
 * accounting are the CommitPipeline's (engine/commit_pipeline.hh).
 * The geometry helper shared with arena budgeting is non-template
 * and lives in journal.cc.
 */

#ifndef LP_STORE_JOURNAL_HH
#define LP_STORE_JOURNAL_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "ep/pmem_ops.hh"
#include "lp/checksum.hh"
#include "store/layout.hh"

namespace lp::store
{

/** Journal record type, held in the low byte of JEntry::tag. */
enum class JOp : std::uint8_t
{
    Header = 0,  ///< batch header: key = op count, value = digest
    Put = 1,
    Del = 2,
};

/**
 * One journal record, packed to 24B (2.67 records per block) for
 * write density; see the file comment for why torn records are safe.
 */
struct JEntry
{
    std::uint64_t tag;  ///< (epoch << 8) | JOp
    std::uint64_t key;  ///< user key; for Header: op count of batch
    std::uint64_t value;

    static std::uint64_t
    makeTag(JOp op, std::uint64_t epoch)
    {
        return (epoch << 8) | static_cast<std::uint64_t>(op);
    }

    std::uint64_t epoch() const { return tag >> 8; }
    JOp op() const { return static_cast<JOp>(tag & 0xff); }
};

static_assert(sizeof(JEntry) == 24);

/** Journal entry capacity for @p cfg: foldBatches + slack batches. */
std::size_t journalCapacity(const StoreConfig &cfg);

/**
 * One shard's batch journal: an append cursor over a fixed arena
 * allocation of JEntry records. All stores go through the Env with
 * PLAIN STORES -- no flush, no fence -- exactly the Lazy Persistency
 * discipline; flushAll() is the fold's eager pin.
 */
template <typename Env>
class BatchJournal
{
  public:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    BatchJournal(pmem::PersistentArena &arena, std::size_t cap)
        : buf_(arena.alloc<JEntry>(cap)), cap_(cap)
    {
    }

    std::size_t tail() const { return tail_; }
    bool batchOpen() const { return batchStart_ != npos; }

    /// @name Raw buffer geometry, for parity coverage (backend_lp)
    /// and fault injection (store FaultSurface).
    /// @{
    const void *data() const { return buf_; }
    std::size_t dataBytes() const { return cap_ * sizeof(JEntry); }
    std::size_t sealedBytes() const
    {
        return (batchOpen() ? batchStart_ : tail_) * sizeof(JEntry);
    }
    /// @}

    /** Room for a header plus @p batchOps records? */
    bool
    roomFor(int batchOps) const
    {
        return tail_ + std::size_t(batchOps) + 1 <= cap_;
    }

    /**
     * Open a batch for @p epoch: append the header (its op count and
     * digest are filled at seal time) and reset @p acc for the batch
     * digest. Clearing the digest word keeps a digest left at this
     * offset by an earlier journal generation from standing for the
     * new batch.
     */
    void
    open(Env &env, std::uint64_t epoch, core::ChecksumAcc &acc)
    {
        LP_ASSERT(!batchOpen(), "batch already open");
        batchStart_ = tail_++;
        JEntry &h = buf_[batchStart_];
        env.st(&h.tag, JEntry::makeTag(JOp::Header, epoch));
        env.st(&h.key, std::uint64_t{0});    // op count, filled at seal
        env.st(&h.value, std::uint64_t{0});  // digest, filled at seal
        acc.reset();
        env.tick(4);
    }

    /** Append one record and fold it into the digest. */
    void
    append(Env &env, JOp op, std::uint64_t key, std::uint64_t value,
           std::uint64_t epoch, core::ChecksumAcc &acc,
           std::uint64_t ckCost)
    {
        LP_ASSERT(batchOpen() && tail_ < cap_, "append out of bounds");
        JEntry &e = buf_[tail_];
        const std::uint64_t tag = JEntry::makeTag(op, epoch);
        env.st(&e.tag, tag);
        env.st(&e.key, key);
        env.st(&e.value, value);
        acc.addWord(tag);
        acc.addWord(key);
        acc.addWord(value);
        env.tick(3 * ckCost);
        ++tail_;
    }

    /**
     * Seal the open batch: finalize the header's op count, fold the
     * header into the digest and store the digest into the header --
     * still plain stores. The digest store is the commit.
     */
    void
    seal(Env &env, std::uint64_t count, std::uint64_t epoch,
         core::ChecksumAcc &acc, std::uint64_t ckCost)
    {
        LP_ASSERT(batchOpen(), "no open batch");
        JEntry &h = buf_[batchStart_];
        env.st(&h.key, count);
        acc.addWord(JEntry::makeTag(JOp::Header, epoch));
        acc.addWord(count);
        env.tick(2 * ckCost);
        env.st(&h.value, acc.value());
        batchStart_ = npos;
    }

    /** Eagerly flush every appended record (no fence). */
    void
    flushAll(Env &env)
    {
        ep::flushRange(env, buf_, tail_ * sizeof(JEntry));
    }

    /** Restart at offset 0 (after a fold or recovery). */
    void
    reset()
    {
        tail_ = 0;
        batchStart_ = npos;
    }

    /**
     * Recovery walk (see the recovery story in backend_lp.hh): from
     * offset 0, expect epochs base+1, base+2, ... and accept each
     * batch that checkBatch() validates. Accepted batches replay
     * through @p apply(JEntry&) per record, then @p batchDone() (the
     * backend's flush + fence). Stops at the first batch failing
     * validation -- appends are sequential, so durability is
     * prefix-shaped. Returns the last committed epoch.
     *
     * @p repairFn is the media-repair hook: on the FIRST validation
     * failure of any kind (header tag mismatch included -- a rotted
     * header looks exactly like the clean end of the journal) it is
     * invoked once; if it reports that it changed anything, the
     * failing position is re-validated once before the failure is
     * made final.
     */
    template <typename ApplyFn, typename DoneFn, typename RepairFn>
    std::uint64_t
    replay(Env &env, const StoreConfig &cfg, std::uint64_t base,
           ApplyFn &&apply, DoneFn &&batchDone, RepairFn &&repairFn,
           RecoveryReport &rep)
    {
        bool repairTried = false;
        std::uint64_t e = base + 1;
        std::size_t pos = 0;
        while (pos < cap_) {
            std::uint64_t count = 0;
            const BatchCheck c = checkBatch(env, cfg, pos, e, count);
            if (c != BatchCheck::Valid) {
                if (!repairTried) {
                    repairTried = true;
                    if (repairFn())
                        continue;
                }
                if (c == BatchCheck::Torn)
                    ++rep.batchesDiscarded;
                break;
            }
            for (std::uint64_t i = 1; i <= count; ++i) {
                apply(buf_[pos + i]);
                ++rep.entriesReplayed;
            }
            batchDone();
            ++rep.batchesReplayed;
            pos += 1 + count;
            ++e;
        }
        return e - 1;
    }

    /**
     * Non-mutating audit of committed-but-unfolded batches (the
     * verify() hook): re-walk epochs base+1 .. last through the same
     * checkBatch() validation as replay(), without applying
     * anything. True iff every committed batch still validates.
     */
    bool
    auditCommitted(Env &env, const StoreConfig &cfg,
                   std::uint64_t base, std::uint64_t last)
    {
        std::size_t pos = 0;
        for (std::uint64_t e = base + 1; e <= last; ++e) {
            std::uint64_t count = 0;
            if (pos >= cap_ ||
                checkBatch(env, cfg, pos, e, count) !=
                    BatchCheck::Valid)
                return false;
            pos += 1 + count;
        }
        return true;
    }

  private:
    /** Verdict of checkBatch() on one journal position. */
    enum class BatchCheck
    {
        Valid,
        NoHeader,  ///< no header of this epoch: the journal's end
        Torn,      ///< header found, body or digest does not check
    };

    /**
     * Validate the batch of epoch @p e at entry @p pos against what
     * actually reached NVMM: the header tag, the op-count bound, every
     * record's tag, and the digest recomputed over the records and
     * header, compared with the one seal() stored in the header. On
     * Valid, @p count is the batch's op count.
     */
    BatchCheck
    checkBatch(Env &env, const StoreConfig &cfg, std::size_t pos,
               std::uint64_t e, std::uint64_t &count)
    {
        const std::uint64_t cost =
            core::ChecksumAcc::updateCost(cfg.checksum);
        JEntry &h = buf_[pos];
        if (env.ld(&h.tag) != JEntry::makeTag(JOp::Header, e))
            return BatchCheck::NoHeader;
        count = env.ld(&h.key);
        if (count > std::uint64_t(cfg.batchOps) ||
            pos + 1 + count > cap_)
            return BatchCheck::Torn;
        core::ChecksumAcc acc(cfg.checksum);
        bool shapeOk = true;
        for (std::uint64_t i = 1; i <= count; ++i) {
            JEntry &je = buf_[pos + i];
            const std::uint64_t t = env.ld(&je.tag);
            acc.addWord(t);
            acc.addWord(env.ld(&je.key));
            acc.addWord(env.ld(&je.value));
            env.tick(3 * cost);
            if (t != JEntry::makeTag(JOp::Put, e) &&
                t != JEntry::makeTag(JOp::Del, e))
                shapeOk = false;
        }
        acc.addWord(JEntry::makeTag(JOp::Header, e));
        acc.addWord(count);
        env.tick(2 * cost);
        if (!shapeOk || env.ld(&h.value) != acc.value())
            return BatchCheck::Torn;
        return BatchCheck::Valid;
    }

    JEntry *buf_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t tail_ = 0;
    std::size_t batchStart_ = npos;
};

} // namespace lp::store

#endif // LP_STORE_JOURNAL_HH
