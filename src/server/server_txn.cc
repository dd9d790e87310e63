/**
 * @file
 * Cross-shard transaction machinery (docs/txn_design.md): the
 * acceptor-side coordinator (routeTxn, vote collection, the
 * decision append) and the worker-side glue around each worker's
 * txn::Participant (parking on lock waits, votes, replies).
 */

#include "server/server_impl.hh"

#include <sys/stat.h>

#include "base/logging.hh"

namespace lp::server
{

void
Server::Impl::postTxnVote(std::shared_ptr<TxnCtx> ctx)
{
    bool wasEmpty;
    {
        std::lock_guard<std::mutex> g(txnMu);
        wasEmpty = txnVotes.empty();
        txnVotes.push_back(std::move(ctx));
    }
    // Empty->nonempty edge only, like postReply: one wake drains all.
    if (wasEmpty)
        wakeFd.signal();
}

/**
 * Service the fallout of a lock release: resume parked parts the
 * release granted, abort the ones it killed (whose own releases
 * can grant/kill further waiters -- hence the worklist), then
 * retry deferred work.
 */
void
Server::Impl::serviceLockEvents(Worker &w, txn::LockTable::Events ev)
{
    while (!ev.granted.empty() || !ev.died.empty()) {
        txn::LockTable::Events next;
        for (const auto id : ev.died)
            unparkTxn(w, id, false, next);
        for (const auto id : ev.granted)
            unparkTxn(w, id, true, next);
        ev = std::move(next);
    }
    retryDeferred(w);
}

/**
 * Take @p id's parked part off the lock wait: on a grant, continue
 * its lock plan past the awaited key; on a wait-die kill, drop the
 * keys held before it (the table already removed the waiter entry)
 * and abort.
 */
void
Server::Impl::unparkTxn(Worker &w, txn::TxnId id, bool granted,
                        txn::LockTable::Events &ev)
{
    const auto it = w.parked.find(id);
    if (it == w.parked.end())
        return;
    const Worker::ParkedTxn pk = std::move(it->second);
    w.parked.erase(it);
    if (!granted) {
        w.participant->release(id, pk.ctx->parts[pk.part], ev, pk.next);
        abortTxnPart(w, pk.ctx, false);
    } else if (acquireTxnLocks(w, pk.ctx, pk.part, pk.next + 1, ev)) {
        prepareTxnPart(w, pk.ctx, pk.part);
    }
}

/**
 * Drive @p partIdx's lock plan from index @p next. True once
 * every lock is held; false when the part parked (resumed by a
 * later grant) or died (already aborted here).
 */
bool
Server::Impl::acquireTxnLocks(Worker &w,
                              const std::shared_ptr<TxnCtx> &ctx,
                              std::size_t partIdx, std::size_t next,
                              txn::LockTable::Events &ev)
{
    switch (w.participant->lock(ctx->txnid, ctx->parts[partIdx], next,
                                ev)) {
      case txn::Acquire::Granted:
        return true;
      case txn::Acquire::Waiting:
        w.parked[ctx->txnid] = Worker::ParkedTxn{ctx, partIdx, next};
        return false;
      case txn::Acquire::Die:
        abortTxnPart(w, ctx, false);
        return false;
    }
    return false;
}

/** This part is out (locks already dropped): reply directly on
 *  the fast path, else vote Aborted to the coordinator. */
void
Server::Impl::abortTxnPart(Worker &w,
                           const std::shared_ptr<TxnCtx> &ctx,
                           bool faulted)
{
    if (faulted)
        ctx->faulted.store(true, std::memory_order_release);
    if (ctx->fastPath) {
        w.statTxnAborts.fetch_add(1, std::memory_order_relaxed);
        w.txnAbortNs.record(obs::nowNs() - ctx->tStartNs);
        postReply(ctx->connId,
                  statusReply(faulted ? Status::Fault
                                      : Status::Aborted,
                              ctx->reqId));
        return;
    }
    ctx->abortedParts.fetch_add(1, std::memory_order_relaxed);
    postTxnVote(ctx);
}

/**
 * Locks held: resolve this part (filling the transaction's read
 * slots), then publish the PREPARE vote -- or, on the fast path,
 * stage the write-set as one epoch, with no prepare slot, no
 * decision record, and no eager protocol flush (where LP's
 * commit-latency win over WAL must survive). The fast path's reply
 * and lock release both wait for that epoch's commit (releaseAck).
 */
void
Server::Impl::prepareTxnPart(Worker &w,
                             const std::shared_ptr<TxnCtx> &ctx,
                             std::size_t partIdx)
{
    txn::TxnPart &part = ctx->parts[partIdx];

    const auto abortHeld = [&](bool faulted) {
        txn::LockTable::Events ev;
        w.participant->release(ctx->txnid, part, ev);
        abortTxnPart(w, ctx, faulted);
        serviceLockEvents(w, std::move(ev));
    };
    w.participant->resolve(w.env, *ctx, part);
    // Quarantine backstop on the owning thread (the acceptor's
    // precheck can race with a scrub discovering corruption). A
    // full PREPARE table aborts the same way, minus the fault.
    if (!part.writes.empty() && w.shard->quarantined()) {
        abortHeld(true);
        return;
    }
    if (!ctx->fastPath) {
        if (!w.participant->prepare(w.env, ctx->txnid, part))
            abortHeld(false);
        else
            postTxnVote(ctx);
        return;
    }
    std::string body = encodeTxnReadsBody(ctx->reads);
    if (part.writes.empty()) {
        // Read-only: nothing to persist, reply straight away.
        replyFastTxn(w, *ctx, std::move(body));
        return;
    }
    const std::uint64_t epoch = w.participant->commitFast(
        w.env, part.writes, [&](std::uint64_t) {
            w.statMuts.fetch_add(1, std::memory_order_relaxed);
        });
    w.pending.push_back(Worker::Pending{.connId = ctx->connId,
                                        .reqId = ctx->reqId,
                                        .epoch = epoch,
                                        .tStagedNs = obs::nowNs(),
                                        .txn = ctx,
                                        .txnBody = std::move(body)});
}

/**
 * A fast-path transaction is durable: reply with its reads, then
 * release its locks (held until now so no later transaction could
 * commit against values a crash might still discard).
 */
void
Server::Impl::replyFastTxn(Worker &w, const TxnCtx &ctx,
                           std::string body)
{
    Response r;
    r.status = Status::Ok;
    r.id = ctx.reqId;
    r.body = std::move(body);
    postReply(ctx.connId, std::move(r));
    w.statTxnCommits.fetch_add(1, std::memory_order_relaxed);
    w.txnCommitNs.record(obs::nowNs() - ctx.tStartNs);
    txn::LockTable::Events ev;
    w.participant->release(ctx.txnid, ctx.parts[0], ev);
    serviceLockEvents(w, std::move(ev));
}

/**
 * Coordinator entry: validate, split the wire ops into per-shard
 * parts with their lock plans, pick the path, and fan out.
 */
void
Server::Impl::routeTxn(Conn &c, Request &req)
{
    for (const TxnOp &t : req.txn) {
        if (t.key > store::maxUserKey) {
            statErrs.fetch_add(1, std::memory_order_relaxed);
            localReply(c, statusReply(Status::Err, req.id));
            return;
        }
    }
    // Quarantine precheck. Unlike BATCH (per-op Fault votes)
    // the worker-side backstop aborts the WHOLE transaction,
    // so this mirror read just refuses early.
    for (const TxnOp &t : req.txn) {
        if (t.kind != TxnOp::Kind::Get &&
            workers[std::size_t(store::shardOfKey(t.key, cfg.shards))]
                ->shard->quarantined()) {
            statFaults.fetch_add(1, std::memory_order_relaxed);
            localReply(c, statusReply(Status::Fault, req.id));
            return;
        }
    }
    if (c.inflight >= cfg.maxInflightPerConn) {
        statRetries.fetch_add(1, std::memory_order_relaxed);
        localReply(c, statusReply(Status::Retry, req.id));
        return;
    }
    ++c.inflight;
    auto ctx = std::make_shared<TxnCtx>();
    ctx->txnid = nextTxnId++;
    ctx->connId = c.id;
    ctx->reqId = req.id;
    ctx->traceId = obs::traceIdOf(c.id, req.id);
    ctx->tStartNs = obs::nowNs();
    ctx->ops = std::move(req.txn);
    ctx->split([&](std::uint64_t key) {
        return store::shardOfKey(key, cfg.shards);
    });
    ctx->fastPath = txn::fastPath(*ctx, cfg.backend, cfg.batchOps);
    ctx->votesLeft.store(int(ctx->parts.size()),
                         std::memory_order_relaxed);
    const std::uint64_t tEnq = obs::nowNs();
    for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
        OpItem it;
        it.kind = OpItem::Kind::Txn;
        it.connId = c.id;
        it.reqId = req.id;
        it.tEnqNs = tEnq;
        it.traceId = ctx->traceId;
        it.txn = ctx;
        it.part = i;
        enqueue(ctx->parts[i].shard, std::move(it));
    }
}

/** Collect participant votes; the last vote decides the txn. */
void
Server::Impl::drainTxnVotes()
{
    std::vector<std::shared_ptr<TxnCtx>> local;
    {
        std::lock_guard<std::mutex> g(txnMu);
        local.swap(txnVotes);
    }
    for (const auto &ctx : local)
        if (ctx->votesLeft.fetch_sub(1, std::memory_order_acq_rel) == 1)
            finishTxn(ctx);
}

/**
 * Every participant voted (general path only; the fast path never
 * posts events). Unanimous PREPARE commits; any Aborted vote
 * aborts. Either way every part gets a follow-up op -- read-only
 * parts included, since they hold locks to release.
 */
void
Server::Impl::finishTxn(const std::shared_ptr<TxnCtx> &ctx)
{
    const std::uint64_t tEnq = obs::nowNs();
    if (ctx->abortedParts.load(std::memory_order_acquire) > 0) {
        for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
            if (!ctx->parts[i].prepared)
                continue;
            OpItem it;
            it.kind = OpItem::Kind::TxnAbort;
            it.tEnqNs = tEnq;
            it.traceId = ctx->traceId;
            it.txn = ctx;
            it.part = i;
            enqueue(ctx->parts[i].shard, std::move(it));
        }
        const bool faulted =
            ctx->faulted.load(std::memory_order_acquire);
        if (faulted)
            statFaults.fetch_add(1, std::memory_order_relaxed);
        statTxnAborts.fetch_add(1, std::memory_order_relaxed);
        txnAbortNs.record(obs::nowNs() - ctx->tStartNs);
        postReply(ctx->connId,
                  statusReply(faulted ? Status::Fault
                                      : Status::Aborted,
                              ctx->reqId));
        return;
    }
    // The decision append (store + flush + fence) IS the commit:
    // with every vote durable, the record makes the outcome
    // recoverable, so the client reply goes out now and the
    // applies stay lazy.
    if (ctx->nWrites > 0)
        dlog->append(txnEnv, ctx->txnid);
    Response r;
    r.status = Status::Ok;
    r.id = ctx->reqId;
    r.body = encodeTxnReadsBody(ctx->reads);
    postReply(ctx->connId, std::move(r));
    statTxnCommits.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t commitDt = obs::nowNs() - ctx->tStartNs;
    txnCommitNs.record(commitDt);
    // Coordinator-side span covering route->decision; the flow id
    // connects it to the per-shard prepare/apply queue spans.
    obs::traceSpanFrom(acceptRing, "txn_commit", ctx->tStartNs,
                       ctx->txnid, ctx->traceId);
    txnCommitNs.recordExemplar(commitDt, ctx->traceId);
    for (std::size_t i = 0; i < ctx->parts.size(); ++i) {
        OpItem it;
        it.kind = OpItem::Kind::TxnApply;
        it.tEnqNs = tEnq;
        it.traceId = ctx->traceId;
        it.txn = ctx;
        it.part = i;
        enqueue(ctx->parts[i].shard, std::move(it));
    }
}

/**
 * Map (or create) the coordinator's decision log and scan it.
 * Runs on the start() thread before the acceptor spawns; the
 * thread-creation fence publishes dlog to the acceptor, and the
 * readiness latch orders the scan before any worker's TxnRecover.
 */
void
Server::Impl::openTxnLog()
{
    const std::string path = cfg.dataDir + "/txnlog.lpdb";
    struct stat st{};
    const bool attach =
        ::stat(path.c_str(), &st) == 0 && st.st_size > 0;
    txnArena = std::make_unique<pmem::PersistentArena>(
        txn::decisionLogBytes(cfg.txnDecisionEntries), path);
    dlog = std::make_unique<txn::DecisionLog<kernels::NativeEnv>>(
        *txnArena, cfg.txnDecisionEntries, attach);
    if (!attach)
        txnArena->persistAll();
    dlogMaxTxnId = dlog->scan(txnEnv);
}

} // namespace lp::server
