/**
 * @file
 * The shared-nothing shard worker: store open/recovery, the
 * dequeue-dispatch-commit-release round (the served commit rule),
 * strict-FIFO deferral, and ack release. One thread per shard; see
 * server_impl.hh for the ownership contract.
 */

#include "server/server_impl.hh"

#include <sys/stat.h>

#include <algorithm>

#include "base/logging.hh"
#include "index/merge.hh"

namespace lp::server
{

/**
 * Open (or re-attach) this worker's single-shard store and bind its
 * one Shard. Runs on the worker's own thread so the debug owner
 * binding and all recovery table writes happen on the thread that
 * will serve the shard.
 */
void
Server::Impl::openStore(Worker &w)
{
    store::StoreConfig scfg;
    scfg.capacity = cfg.capacityPerShard;
    scfg.shards = 1;
    scfg.batchOps = cfg.batchOps;
    scfg.foldBatches = cfg.foldBatches;
    scfg.checksum = cfg.checksum;
    const std::string path = shardPath(w.index);
    struct stat st{};
    const bool attach = ::stat(path.c_str(), &st) == 0 &&
                        st.st_size > 0;
    // Arena budget: the flight-recorder ring FIRST (so postmortem
    // finds it at the arena base offset in the raw file -- the
    // obs::FlightRing placement contract), then the store image,
    // then this shard's PREPARE table, allocated in that order on
    // every open (the arena attach contract).
    const std::size_t flightBytes =
        cfg.flightEvents > 0
            ? obs::FlightRing::bytesFor(cfg.flightEvents)
            : 0;
    w.arena = std::make_unique<pmem::PersistentArena>(
        flightBytes + store::storeArenaBytes(scfg) +
            txn::prepareLogBytes(cfg.txnPrepareSlots),
        path);
    if (cfg.flightEvents > 0)
        w.flight = std::make_unique<obs::FlightRing>(
            *w.arena, cfg.flightEvents, std::uint32_t(w.index));
    w.kv = std::make_unique<store::KvStore<kernels::NativeEnv>>(
        *w.arena, scfg, cfg.backend, attach);
    store::KvStore<kernels::NativeEnv> &kv = *w.kv;
    w.shard = &kv.shard(0);  // scfg.shards == 1: every key lands here
    w.participant =
        std::make_unique<txn::Participant<kernels::NativeEnv>>(
            *w.arena, kv, 0, cfg.txnPrepareSlots, attach);
    // Attach the trace ring before recovery so the replay's
    // "recover_shard" span lands in the collector -- and tee it
    // into the flight recorder, which persists every span this
    // worker emits (the volatile ring stops at capacity; the
    // flight copy keeps wrapping).
    if (w.ring) {
        w.shard->attachTraceRing(w.ring);
        if (w.flight)
            w.ring->attachSink(w.flight.get());
    }
    if (attach) {
        w.report = kv.recover(w.env);
        w.attached = true;
    } else {
        w.arena->persistAll();
    }
    w.statCommittedEpoch.store(w.shard->committedEpoch(),
                               std::memory_order_relaxed);
    w.lastScrub = Clock::now();
    if (w.shard->quarantined()) {
        w.quarantineLogged = true;
        warn("lp::server shard " + std::to_string(w.index) +
             " has unrepairable media corruption; serving "
             "read-only (mutations get Fault)");
    }
}

/** Acknowledge one released mutation (direct op or BATCH part). */
void
Server::Impl::releaseAck(Worker &w, Worker::Pending &p)
{
    // Commit-wait span + exemplar: staged -> its epoch committed.
    // Every branch below records commitWaitNs; doing it here once
    // keeps the histogram, the exemplar, and the trace span over
    // the identical interval.
    const std::uint64_t waitDt = obs::nowNs() - p.tStagedNs;
    if (p.connId != 0 || p.txn) {
        obs::traceSpanFrom(w.ring, "commit_wait", p.tStagedNs,
                           p.epoch, p.traceId);
        if (p.traceId)
            w.commitWaitNs.recordExemplar(waitDt, p.traceId);
    }
    if (p.txn) {
        // Fast-path TXN: the epoch carrying the whole write-set
        // committed.
        w.commitWaitNs.record(waitDt);
        replyFastTxn(w, *p.txn, std::move(p.txnBody));
        return;
    }
    if (p.connId == 0)
        return;  // internal apply of a committed TXN: no reply
    w.commitWaitNs.record(waitDt);
    if (p.batch) {
        if (p.batch->remaining.fetch_sub(
                1, std::memory_order_acq_rel) != 1)
            return;  // not the last sub-op yet
        Response r;
        r.status = p.batch->faulted.load(std::memory_order_acquire)
                       ? Status::Fault
                       : Status::Ok;
        r.id = p.batch->reqId;
        postReply(p.batch->connId, std::move(r));
        return;
    }
    Response r;
    r.status = Status::Ok;
    r.id = p.reqId;
    postReply(p.connId, std::move(r));
}

/**
 * Release, in order, every pending ack whose epoch has committed,
 * and refresh this worker's stat mirrors (epoch accounting comes
 * from the shard pipeline's counters). Returns how many acks were
 * released.
 */
std::size_t
Server::Impl::releaseCommitted(Worker &w)
{
    const std::uint64_t ce = w.shard->committedEpoch();
    const std::uint64_t prevCe =
        w.statCommittedEpoch.load(std::memory_order_relaxed);
    // A release can stage new work (see workerMain); it lands behind
    // the committed prefix in a later epoch, and deque push_back
    // keeps the front reference valid.
    std::size_t n = 0;
    while (!w.pending.empty() && w.pending.front().epoch <= ce) {
        releaseAck(w, w.pending.front());
        w.pending.pop_front();
        ++n;
    }
    w.participant->sweepFrees(w.env);
    const engine::PipelineCounters &c = w.shard->pipeline().counters();
    w.statAcks.fetch_add(n, std::memory_order_relaxed);
    w.statEpochs.store(c.epochsCommitted,
                       std::memory_order_relaxed);
    w.statFolds.store(c.folds, std::memory_order_relaxed);
    w.statCommittedEpoch.store(ce, std::memory_order_relaxed);
    // Seal the flight recorder on the epoch-commit cadence: the
    // watermark publish is one header write, and riding commits
    // means everything up to the last committed epoch's spans is
    // recoverable by postmortem after a SIGKILL.
    if (w.flight && ce != prevCe)
        w.flight->seal();
    return n;
}

/// Can this kind join Worker::deferred? Single-key Gets bypass
/// (a point read tears nothing: prepared writes are invisible
/// until apply), as do the TxnApply/TxnAbort decision fan-outs
/// that drain the queue.
bool
Server::Impl::deferrable(OpItem::Kind k)
{
    return k == OpItem::Kind::Scan || k == OpItem::Kind::Put ||
           k == OpItem::Kind::Del || k == OpItem::Kind::Txn;
}

/**
 * Must @p op wait for a lock-state change before running? Only
 * meaningful when nothing older is queued ahead of it (strict
 * FIFO handles that part).
 */
bool
Server::Impl::deferNow(Worker &w, const OpItem &op) const
{
    switch (op.kind) {
      case OpItem::Kind::Scan:
        return w.participant->scanMustWait(op.key);
      case OpItem::Kind::Put:
      case OpItem::Kind::Del:
        return w.participant->writeMustWait(op.key);
      default:
        // Txn parts always run once they reach the front: lock
        // acquisition itself resolves conflicts (grant, park,
        // or wait-die abort).
        return false;
    }
}

/// Run @p op now unless strict FIFO or its own defer condition
/// says it must queue (see Worker::deferred).
void
Server::Impl::dispatchOp(Worker &w, OpItem &op)
{
    if (deferrable(op.kind) &&
        (!w.deferred.empty() || deferNow(w, op))) {
        op.tEnqNs = obs::nowNs();
        w.deferred.push_back(std::move(op));
        return;
    }
    processOp(w, op);
}

/**
 * After a lock-state change, drain deferred work from the
 * front, stopping at the first item that must still wait --
 * never past it, or a later scan/part would observe a cut
 * inconsistent with its siblings on other shards.
 */
void
Server::Impl::retryDeferred(Worker &w)
{
    while (!w.deferred.empty() &&
           !deferNow(w, w.deferred.front())) {
        OpItem op = std::move(w.deferred.front());
        w.deferred.pop_front();
        processOp(w, op);
    }
}

void
Server::Impl::processOp(Worker &w, OpItem &op)
{
    const std::uint64_t queueDt = obs::nowNs() - op.tEnqNs;
    w.queueNs.record(queueDt);
    if (op.traceId) {
        obs::traceSpanFrom(w.ring, "queue", op.tEnqNs, op.reqId,
                           op.traceId);
        w.queueNs.recordExemplar(queueDt, op.traceId);
    }
    switch (op.kind) {
      case OpItem::Kind::Get: {
        const auto v = w.shard->get(w.env, op.key);
        w.statGets.fetch_add(1, std::memory_order_relaxed);
        Response r;
        r.status = v ? Status::Ok : Status::NotFound;
        r.id = op.reqId;
        r.hasValue = v.has_value();
        r.value = v.value_or(0);
        postReply(op.connId, std::move(r));
        return;
      }
      case OpItem::Kind::Scan: {
        // Defer conditions were checked by dispatchOp /
        // retryDeferred; by the time a sub-scan runs here, no
        // prepared-but-unapplied transaction write can be under
        // its range.
        // Sub-scan of this worker's shard. KvStore::scan records
        // the per-shard scan latency/length histograms itself
        // (single-shard store: shard 0 is exactly this shard).
        ScanCtx &ctx = *op.scan;
        auto &slot = ctx.parts[std::size_t(w.index)];
        w.kv->scan(w.env, op.key, std::size_t(op.value),
                   [&slot](std::uint64_t k, std::uint64_t v) {
                       slot.push_back(ScanRecord{k, v});
                   });
        w.statScans.fetch_add(1, std::memory_order_relaxed);
        if (ctx.remaining.fetch_sub(
                1, std::memory_order_acq_rel) != 1)
            return;  // other shards still scanning
        // Last sub-scan: merge the sorted partials, the same k-way
        // merge KvStore::scan runs over its index cursors.
        struct PartCursor
        {
            const ScanRecord *at, *end;
            bool valid() const { return at != end; }
            std::uint64_t key() const { return at->key; }
            std::uint64_t value() const { return at->value; }
            void advance() { ++at; }
        };
        std::vector<PartCursor> cur;
        cur.reserve(ctx.parts.size());
        for (const auto &p : ctx.parts)
            cur.push_back({p.data(), p.data() + p.size()});
        std::vector<ScanRecord> merged;
        merged.reserve(ctx.limit);
        index::mergeAscending(cur.data(), cur.size(), ctx.limit,
                              [&merged](std::uint64_t k,
                                        std::uint64_t v) {
                                  merged.push_back(ScanRecord{k, v});
                              });
        Response r;
        r.status = Status::Ok;
        r.id = ctx.reqId;
        r.body = encodeScanBody(merged);
        postReply(ctx.connId, std::move(r));
        return;
      }
      case OpItem::Kind::Put:
      case OpItem::Kind::Del: {
        // Worker-side quarantine backstop: the acceptor's
        // fast-path check can race with a scrub discovering
        // corruption, so the authoritative refusal lives here,
        // on the thread that owns the shard.
        if (w.shard->quarantined()) {
            if (op.batch) {
                op.batch->faulted.store(
                    true, std::memory_order_release);
                if (op.batch->remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1)
                    postReply(op.batch->connId,
                              statusReply(Status::Fault,
                                          op.batch->reqId));
                return;
            }
            postReply(op.connId,
                      statusReply(Status::Fault, op.reqId));
            return;
        }
        const bool isPut = op.kind == OpItem::Kind::Put;
        const std::uint64_t epoch = w.shard->stage(
            w.env, isPut ? store::JOp::Put : store::JOp::Del, op.key,
            isPut ? op.value : 0, op.traceId);
        w.statMuts.fetch_add(1, std::memory_order_relaxed);
        // Every mutation waits for its epoch to commit, which
        // happens by the end of this round (workerMain).
        w.pending.push_back(Worker::Pending{.connId = op.connId,
                                            .reqId = op.reqId,
                                            .epoch = epoch,
                                            .tStagedNs = obs::nowNs(),
                                            .traceId = op.traceId,
                                            .batch = op.batch});
        return;
      }
      case OpItem::Kind::Txn: {
        txn::LockTable::Events ev;
        if (acquireTxnLocks(w, op.txn, op.part, 0, ev))
            prepareTxnPart(w, op.txn, op.part);
        serviceLockEvents(w, std::move(ev));
        return;
      }
      case OpItem::Kind::TxnApply:
      case OpItem::Kind::TxnAbort: {
        // The coordinator decided. Commit: the participant applies
        // the part's write-set and persists the applied marker, all
        // BEFORE the locks go; each apply rides the ack pipeline as
        // an internal (reply-less) pending entry. Abort (this part
        // had prepared): it frees the undecided vote.
        const txn::TxnPart &part = op.txn->parts[op.part];
        if (op.kind == OpItem::Kind::TxnAbort)
            w.participant->rollBack(w.env, part);
        else
            w.participant->apply(w.env, part, [&](std::uint64_t e) {
                w.statMuts.fetch_add(1, std::memory_order_relaxed);
                w.pending.push_back(
                    Worker::Pending{.connId = 0,
                                    .reqId = 0,
                                    .epoch = e,
                                    .tStagedNs = obs::nowNs(),
                                    .traceId = op.txn->traceId});
            });
        txn::LockTable::Events ev;
        w.participant->release(op.txn->txnid, part, ev);
        serviceLockEvents(w, std::move(ev));
        return;
      }
      case OpItem::Kind::TxnRecover: {
        // Startup phase 2 (after every shard's own recovery and
        // the coordinator's decision-log scan): replay this
        // shard's prepare table against the decision index.
        w.txnReport = w.participant->recover(
            w.env, w.shard->committedEpoch(), dlog->index());
        {
            std::lock_guard<std::mutex> g(readyMu);
            ++txnReadyCount;
        }
        readyCv.notify_all();
        return;
      }
    }
}

void
Server::Impl::workerMain(Worker &w)
{
    openStore(w);
    {
        std::lock_guard<std::mutex> g(readyMu);
        ++readyCount;
    }
    readyCv.notify_all();

    std::vector<OpItem> local;
    for (;;) {
        bool stopping = false;
        local.clear();
        {
            std::unique_lock<std::mutex> lk(w.mu);
            const auto woken = [&] {
                return w.stopFlag || !w.q.empty();
            };
            if (w.q.empty() && !w.stopFlag) {
                // Every round ends committed and released (below),
                // so no ack is left waiting on an epoch commit.
                LP_ASSERT(w.pending.empty(),
                          "worker idling with acks pending");
                if (cfg.scrubIntervalMs > 0)
                    // Wake for the next scrub step even with no
                    // traffic: an idle server still patrols.
                    w.cv.wait_until(
                        lk,
                        w.lastScrub + std::chrono::milliseconds(
                                          cfg.scrubIntervalMs),
                        woken);
                else
                    w.cv.wait(lk, woken);
            }
            while (!w.q.empty() && local.size() < 128) {
                local.push_back(std::move(w.q.front()));
                w.q.pop_front();
            }
            stopping = w.stopFlag && w.q.empty();
            w.statQueueDepth.store(w.q.size(),
                                   std::memory_order_relaxed);
        }

        for (OpItem &op : local)
            dispatchOp(w, op);

        // The served commit rule: every round ends by committing
        // the shard's open epoch and releasing its acks (a full
        // batch committed inside stage() already). An LP commit is
        // a few plain stores, no flush or fence, so holding an ack
        // past its round would coalesce nothing and only add
        // latency. Releasing an ack can stage new work -- a
        // fast-path TXN's lock release unparks a waiting part or
        // runs a deferred PUT -- so repeat while a release leaves
        // acks pending.
        do {
            w.shard->commit(w.env);
        } while (releaseCommitted(w) != 0 && !w.pending.empty());

        // Online scrub: strictly off the request path (only on
        // rounds whose queue drained empty) and rate-limited, so
        // foreground latency never pays for media patrol.
        if (!stopping && local.empty() &&
            cfg.scrubIntervalMs > 0) {
            const auto now = Clock::now();
            if (now - w.lastScrub >=
                std::chrono::milliseconds(cfg.scrubIntervalMs)) {
                w.shard->scrubStep(w.env, cfg.scrubRegions);
                w.lastScrub = now;
                if (!w.quarantineLogged && w.shard->quarantined()) {
                    w.quarantineLogged = true;
                    warn("lp::server shard " +
                         std::to_string(w.index) +
                         " quarantined by scrub: unrepairable "
                         "media corruption; serving read-only");
                }
            }
        }

        if (stopping) {
            // Parked, deferred, and prepared-but-undecided
            // transaction work dies with the connections -- to a
            // client an unacked request lost at shutdown is
            // indistinguishable from one lost in flight. Prepared
            // slots stay durable; the next startup's decision
            // replay rolls them back (or forward).
            w.parked.clear();
            w.deferred.clear();
            // Graceful drain: everything committed and folded, so
            // a restart recovers instantly. The clean-shutdown
            // mark switches the next recovery into strict mode,
            // where a validation failure is a media fault (repair
            // or quarantine) rather than a crash tear. A
            // quarantined shard keeps its pre-fault superblock
            // untouched so the restart re-detects the quarantine.
            if (!w.shard->quarantined())
                w.kv->checkpoint(w.env);
            w.kv->markClean(w.env);
            w.arena->persistAll();
            releaseCommitted(w);
            // Final flight watermark: the drain marker plus every
            // span the epoch-cadence seal had not covered yet.
            if (w.flight) {
                obs::traceInstant(w.ring, "drain",
                                  w.shard->committedEpoch());
                w.flight->seal();
            }
            LP_ASSERT(w.pending.empty(),
                      "worker drained with unreleased acks");
            break;
        }
    }
    workersExited.fetch_add(1, std::memory_order_release);
    wakeFd.signal();  // let the acceptor notice the exit
}

void
Server::Impl::enqueue(int shard, OpItem &&op)
{
    Worker &w = *workers[shard];
    bool wasEmpty;
    {
        std::lock_guard<std::mutex> g(w.mu);
        wasEmpty = w.q.empty();
        w.q.push_back(std::move(op));
    }
    // Notify only on the empty->nonempty edge: the worker checks the
    // queue under the same mutex before sleeping, so a push onto a
    // non-empty queue is already covered by an earlier notify (or by
    // the worker being awake).
    if (wasEmpty)
        w.cv.notify_one();
}

} // namespace lp::server
