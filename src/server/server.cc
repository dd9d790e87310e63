/**
 * @file
 * Server lifecycle and the acceptor's datapath, rebuilt on lp::net:
 * one edge-triggered EventLoop drives accept, per-connection
 * FrameCursor decoding, and gathered-writev reply flushing through
 * net::Connection. Worker, transaction, and stats logic live in
 * their own translation units (see server_impl.hh).
 */

#include "server/server_impl.hh"

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/logging.hh"
#include "obs/metrics.hh"

namespace lp::server
{

namespace
{

std::atomic<int> signalStopFd{-1};

void
onStopSignal(int)
{
    const int fd = signalStopFd.load(std::memory_order_relaxed);
    if (fd < 0)
        return;
    // The only async-signal-safe work we do: one eventfd write.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

} // namespace

void
Server::Impl::postReply(std::uint64_t connId, Response r)
{
    bool wasEmpty;
    {
        std::lock_guard<std::mutex> g(replyMu);
        wasEmpty = replies.empty();
        replies.push_back(ReplyMsg{connId, obs::nowNs(), std::move(r)});
    }
    // Ring the acceptor only on the empty->nonempty edge: one wake
    // drains the whole queue, so followers piggyback for free.
    if (wasEmpty)
        wakeFd.signal();
}

void
Server::Impl::closeConn(std::uint64_t id)
{
    auto it = conns.find(id);
    if (it == conns.end())
        return;
    Conn &c = *it->second;
    if (acceptRing && c.tOpenNs)
        acceptRing->push({"conn", acceptRing->tid(), c.tOpenNs,
                          obs::nowNs() - c.tOpenNs, id});
    loop.del(c.nc.fd());
    conns.erase(it);  // ~Connection closes the fd, releases outbuf
    statConns.store(conns.size(), std::memory_order_relaxed);
}

/**
 * Flush @p c's queued replies, keep its EPOLLOUT interest in sync,
 * and lift the backpressure read-pause once the outbuf drains below
 * the low watermark. Returns false if the connection died (already
 * closed here). Callers that observe the pause lifting must re-run
 * readable(): the edge-triggered loop never re-reports bytes that
 * arrived during the pause.
 */
bool
Server::Impl::flushDatapath(Conn &c)
{
    const auto fr = c.nc.flush();
    if (fr == net::Connection::Flush::Closed) {
        closeConn(c.id);
        return false;
    }
    const bool ww = (fr == net::Connection::Flush::Blocked);
    if (ww != c.wantWrite &&
        loop.mod(c.nc.fd(), c.id,
                 net::kReadable | net::kEdge |
                     (ww ? net::kWritable : 0u)))
        c.wantWrite = ww;
    if (c.readPaused &&
        c.nc.outBytes() <= std::uint64_t(cfg.outbufLimitBytes) / 2)
        c.readPaused = false;
    return true;
}

/** Queue an acceptor-local reply; readable()'s final flush sends it. */
void
Server::Impl::localReply(Conn &c, Response r)
{
    encodeResponse(r, c.nc.frameBuf());
    c.nc.queueFrame();
}

/** Dispatch one decoded request (may close the connection). */
void
Server::Impl::handleRequest(Conn &c, Request &req)
{
    // Every worker-routed request gets a trace id derived from what
    // is already on the wire (connection id + request id), so the
    // same id is re-derivable at every hop -- including the ack path,
    // which only sees the reply -- without widening any queue entry
    // beyond one word. It threads parse/queue/stage/commit-wait/ack
    // spans (and the epoch commit that made the op durable) into one
    // flow arc in the Chrome trace, and feeds latency exemplars.
    const std::uint64_t traceId = obs::traceIdOf(c.id, req.id);
    switch (req.op) {
      case Op::Get:
      case Op::Put:
      case Op::Del: {
        if (req.key > store::maxUserKey) {
            statErrs.fetch_add(1, std::memory_order_relaxed);
            localReply(c, statusReply(Status::Err, req.id));
            return;
        }
        // Quarantine fast path: refuse mutations to a read-only
        // shard before they queue (the worker re-checks; this
        // mirror read just saves the round trip). GETs pass.
        if (req.op != Op::Get &&
            workers[std::size_t(store::shardOfKey(req.key, cfg.shards))]
                ->shard->quarantined()) {
            statFaults.fetch_add(1, std::memory_order_relaxed);
            localReply(c, statusReply(Status::Fault, req.id));
            return;
        }
        if (c.inflight >= cfg.maxInflightPerConn) {
            statRetries.fetch_add(1, std::memory_order_relaxed);
            localReply(c, statusReply(Status::Retry, req.id));
            return;
        }
        ++c.inflight;
        OpItem it;
        it.kind = req.op == Op::Get   ? OpItem::Kind::Get
                  : req.op == Op::Put ? OpItem::Kind::Put
                                      : OpItem::Kind::Del;
        it.connId = c.id;
        it.reqId = req.id;
        it.key = req.key;
        it.value = req.value;
        it.tEnqNs = obs::nowNs();
        it.traceId = traceId;
        enqueue(store::shardOfKey(req.key, cfg.shards), std::move(it));
        return;
      }
      case Op::Scan: {
        // A start key beyond maxUserKey is legal (empty result),
        // unlike point ops: the range [start, ~0] simply holds no
        // user keys. The decoder already enforced the limit range.
        if (c.inflight >= cfg.maxInflightPerConn) {
            statRetries.fetch_add(1, std::memory_order_relaxed);
            localReply(c, statusReply(Status::Retry, req.id));
            return;
        }
        ++c.inflight;
        auto ctx = std::make_shared<ScanCtx>(cfg.shards, c.id,
                                             req.id, req.limit,
                                             traceId);
        const std::uint64_t tEnq = obs::nowNs();
        for (int s = 0; s < cfg.shards; ++s) {
            OpItem it;
            it.kind = OpItem::Kind::Scan;
            it.connId = c.id;
            it.reqId = req.id;
            it.key = req.key;
            it.value = req.limit;
            it.tEnqNs = tEnq;
            it.traceId = traceId;
            it.scan = ctx;
            enqueue(s, std::move(it));
        }
        return;
      }
      case Op::Batch: {
        if (req.batch.empty()) {
            localReply(c, statusReply(Status::Ok, req.id));
            return;
        }
        for (const BatchOp &b : req.batch) {
            if (b.key > store::maxUserKey) {
                statErrs.fetch_add(1, std::memory_order_relaxed);
                localReply(c, statusReply(Status::Err, req.id));
                return;
            }
        }
        // All-or-nothing quarantine check: refuse the whole
        // BATCH before enqueueing anything if any target shard
        // is read-only, so a Fault reply means no sub-op
        // applied. (A scrub racing in after this check can still
        // fault individual sub-ops; the reply is then Fault but
        // sub-ops on healthy shards have applied -- BATCH is not
        // transactional across shards.)
        for (const BatchOp &b : req.batch) {
            if (workers[std::size_t(store::shardOfKey(b.key, cfg.shards))]
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
        auto ctx = std::make_shared<BatchCtx>(
            std::uint32_t(req.batch.size()), c.id, req.id, traceId);
        const std::uint64_t tEnq = obs::nowNs();
        for (const BatchOp &b : req.batch) {
            OpItem it;
            it.kind = b.isPut ? OpItem::Kind::Put
                              : OpItem::Kind::Del;
            it.connId = c.id;
            it.reqId = req.id;
            it.key = b.key;
            it.value = b.value;
            it.tEnqNs = tEnq;
            it.traceId = traceId;
            it.batch = ctx;
            enqueue(store::shardOfKey(b.key, cfg.shards), std::move(it));
        }
        return;
      }
      case Op::Txn:
        routeTxn(c, req);  // coordinator entry (server_txn.cc)
        return;
      case Op::Metrics: {
        Response r;
        r.status = Status::Ok;
        r.id = req.id;
        r.body = metricsTextNow();
        localReply(c, std::move(r));
        return;
      }
      case Op::Shutdown:
        localReply(c, statusReply(Status::Ok, req.id));
        wantShutdown_ = true;
        return;
    }
    statMalformed.fetch_add(1, std::memory_order_relaxed);
    closeConn(c.id);
}

void
Server::Impl::readable(std::uint64_t connId)
{
    auto it = conns.find(connId);
    if (it == conns.end())
        return;
    Conn &c = *it->second;
    bool drained = false;
    while (!drained) {
        if (c.readPaused) {
            // Backpressure: flushing is the only way forward. If
            // the socket still won't take the outbuf, park until
            // EPOLLOUT re-enters through writable().
            if (!flushDatapath(c))
                return;
            if (c.readPaused)
                return;
        }
        const auto io = c.nc.fill(kReadBudget);
        if (io == net::Connection::Io::Closed) {
            closeConn(connId);
            return;
        }
        drained = (io == net::Connection::Io::Drained);
        // Decode every complete frame buffered so far.
        for (;;) {
            net::FrameCursor &in = c.nc.in();
            Request req;
            std::size_t used = 0;
            const std::uint64_t t0 = obs::nowNs();
            const Decode d =
                decodeRequest(in.data(), in.size(), used, req);
            if (d == Decode::NeedMore)
                break;
            if (d == Decode::Malformed) {
                statMalformed.fetch_add(1, std::memory_order_relaxed);
                closeConn(connId);
                return;
            }
            parseNs.record(obs::nowNs() - t0);
            // Parse span: bytes on the wire (this fill) -> decoded.
            // Its flow id opens the request's trace arc; the queue,
            // stage, epoch-commit, and ack spans continue it.
            obs::traceSpanFrom(
                acceptRing, "parse",
                c.nc.lastFillNs() ? c.nc.lastFillNs() : t0, req.id,
                obs::traceIdOf(c.id, req.id));
            in.consume(used);
            handleRequest(c, req);
            if (conns.find(connId) == conns.end())
                return;  // handleRequest closed it
            if (c.nc.outBytes() >=
                std::uint64_t(cfg.outbufLimitBytes)) {
                c.readPaused = true;
                drained = false;  // buffered frames may remain
                break;
            }
        }
    }
    flushDatapath(c);
}

/** EPOLLOUT: resume the flush, then the decode loop if it unparked. */
void
Server::Impl::writable(std::uint64_t connId)
{
    auto it = conns.find(connId);
    if (it == conns.end())
        return;
    Conn &c = *it->second;
    const bool paused = c.readPaused;
    if (!flushDatapath(c))
        return;
    if (paused && !c.readPaused)
        readable(connId);
}

void
Server::Impl::acceptPending()
{
    for (;;) {
        const int fd =
            ::accept4(listenFd, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0)
            return;
        if (int(conns.size()) >= cfg.maxConns) {
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        auto c = std::make_unique<Conn>(fd, &netStats);
        c->id = nextConnId++;
        c->tOpenNs = obs::nowNs();
        loop.add(fd, c->id, net::kReadable | net::kEdge);
        conns.emplace(c->id, std::move(c));
        statAccepted.fetch_add(1, std::memory_order_relaxed);
        statConns.store(conns.size(), std::memory_order_relaxed);
    }
}

void
Server::Impl::drainReplies()
{
    std::vector<ReplyMsg> local;
    {
        std::lock_guard<std::mutex> g(replyMu);
        local.swap(replies);
    }
    // Encode everything first, flush each touched connection once:
    // a burst of worker replies to one connection becomes a single
    // gathered writev instead of one blocking write per frame.
    std::vector<std::uint64_t> touched;
    for (ReplyMsg &m : local) {
        auto it = conns.find(m.connId);
        if (it == conns.end())
            continue;  // client left before its reply
        Conn &c = *it->second;
        if (c.inflight > 0)
            --c.inflight;
        encodeResponse(m.resp, c.nc.frameBuf());
        c.nc.queueFrame();
        const std::uint64_t ackDt = obs::nowNs() - m.tPostNs;
        ackNs.record(ackDt);
        // Ack span: the trace id is re-derived from the reply's own
        // (connId, reqId) -- the whole point of deriving ids from
        // wire-visible fields -- so the ack leg joins the request's
        // flow arc without the ReplyMsg carrying anything extra.
        const std::uint64_t ackTrace =
            obs::traceIdOf(m.connId, m.resp.id);
        obs::traceSpanFrom(acceptRing, "ack", m.tPostNs,
                           m.resp.id, ackTrace);
        ackNs.recordExemplar(ackDt, ackTrace);
        if (touched.empty() || touched.back() != m.connId)
            touched.push_back(m.connId);
    }
    for (const std::uint64_t id : touched) {
        auto it = conns.find(id);
        if (it == conns.end())
            continue;
        Conn &c = *it->second;
        const bool paused = c.readPaused;
        if (!flushDatapath(c))
            continue;
        if (paused && !c.readPaused)
            readable(id);
    }
}

void
Server::Impl::acceptorMain()
{
    while (!wantShutdown_) {
        const int n = loop.wait(-1);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t ud = loop.data(i);
            if (ud == udListen) {
                acceptPending();
            } else if (ud == udWake) {
                wakeFd.drain();
                drainTxnVotes();
                drainReplies();
            } else if (ud == udStop) {
                stopFd.drain();
                wantShutdown_ = true;
            } else {
                const std::uint32_t ev = loop.events(i);
                if (ev & net::kHangup) {
                    closeConn(ud);
                    continue;
                }
                if (ev & net::kReadable)
                    readable(ud);
                if (ev & net::kWritable)
                    writable(ud);
            }
        }
    }
    shutdownSequence();
}

/**
 * Graceful shutdown: stop accepting, drain the workers (they
 * checkpoint their shards), keep delivering replies until every
 * worker exited and the reply queue is dry, then flush and close.
 */
void
Server::Impl::shutdownSequence()
{
    loop.del(listenFd);
    ::close(listenFd);
    listenFd = -1;

    for (auto &wp : workers) {
        {
            std::lock_guard<std::mutex> g(wp->mu);
            wp->stopFlag = true;
        }
        wp->cv.notify_one();
    }

    // Bounded drain loop: replies may still arrive while workers
    // commit their final batches.
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
        drainTxnVotes();
        drainReplies();
        const bool allOut =
            workersExited.load(std::memory_order_acquire) ==
            int(workers.size());
        bool queued = false;
        {
            std::lock_guard<std::mutex> g(replyMu);
            queued = !replies.empty();
        }
        bool unflushed = false;
        for (auto &[id, c] : conns)
            if (c->nc.wantWrite())
                unflushed = true;
        if ((allOut && !queued && !unflushed) ||
            Clock::now() >= deadline)
            break;
        const int n = loop.wait(50);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t ud = loop.data(i);
            if (ud == udWake) {
                wakeFd.drain();
            } else if (ud == udStop) {
                stopFd.drain();
            } else if (ud >= firstConnId) {
                auto it = conns.find(ud);
                if (it == conns.end())
                    continue;
                if (loop.events(i) & net::kHangup)
                    closeConn(ud);
                else if (loop.events(i) & net::kWritable)
                    flushDatapath(*it->second);
            }
        }
    }

    for (auto &wp : workers)
        if (wp->th.joinable())
            wp->th.join();
    while (!conns.empty())
        closeConn(conns.begin()->first);
    // Producers have quiesced (workers joined, acceptor is this
    // thread): safe to drain the rings and write the trace.
    if (trace && !cfg.traceOut.empty()) {
        if (!trace->writeChromeTrace(cfg.traceOut))
            warn("lp::server could not write trace file " +
                 cfg.traceOut);
        else if (!cfg.quiet)
            inform("lp::server wrote trace " + cfg.traceOut +
                   " (" + std::to_string(trace->totalDropped()) +
                   " events dropped)");
    }
    finished.store(true, std::memory_order_release);
}

void
Server::Impl::writePortFile()
{
    const std::string path = cfg.dataDir + "/PORT";
    const std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    LP_ASSERT(f != nullptr, "cannot write PORT file");
    std::fprintf(f, "%d\n", port_);
    std::fclose(f);
    LP_ASSERT(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot publish PORT file");
}

void
Server::Impl::start()
{
    LP_ASSERT(!started, "Server::start() called twice");
    LP_ASSERT(cfg.shards >= 1, "need at least one shard worker");
    ::mkdir(cfg.dataDir.c_str(), 0755);  // EEXIST is fine

    // Trace rings must exist before worker threads spawn so the
    // pointers are published by the thread-creation fence. The
    // collector is ALWAYS created now, not only under cfg.traceOut:
    // the rings feed each worker's crash-persistent flight recorder
    // (teed in openStore) and the lp_trace_drops_total counters, and
    // recording is allocation-free relaxed stores. The Chrome trace
    // JSON itself is still written only when traceOut names a file.
    trace = std::make_unique<obs::TraceCollector>();
    acceptRing = trace->ring("acceptor", 1000,
                             cfg.traceRingCapacity);

    // Recovery happens on the worker threads, before the port
    // binds: no request can ever observe pre-recovery state.
    workers.reserve(std::size_t(cfg.shards));
    for (int i = 0; i < cfg.shards; ++i) {
        auto w = std::make_unique<Worker>();
        w->index = i;
        w->srv = this;
        w->ring = trace->ring("shard-" + std::to_string(i),
                              std::uint32_t(i),
                              cfg.traceRingCapacity);
        workers.push_back(std::move(w));
    }
    for (auto &wp : workers) {
        Worker *w = wp.get();
        w->th = std::thread([this, w] { workerMain(*w); });
    }
    {
        std::unique_lock<std::mutex> lk(readyMu);
        readyCv.wait(lk, [this] {
            return readyCount == int(workers.size());
        });
    }
    for (const auto &wp : workers) {
        if (!wp->attached)
            continue;
        ++recov.shardsAttached;
        recov.batchesReplayed += wp->report.batchesReplayed;
        recov.entriesReplayed += wp->report.entriesReplayed;
        recov.batchesDiscarded += wp->report.batchesDiscarded;
        recov.walUndone += wp->report.walUndone ? 1 : 0;
        recov.mediaRepaired += wp->report.mediaRepaired;
        recov.mediaUnrepairable += wp->report.mediaUnrepairable;
    }

    // Transaction recovery, phase 2: the decision index must
    // exist before any shard replays its prepare table, and both
    // must finish before the port binds -- a request must never
    // observe a committed-but-unapplied transaction write-set.
    openTxnLog();
    for (auto &wp : workers) {
        OpItem it;
        it.kind = OpItem::Kind::TxnRecover;
        it.tEnqNs = obs::nowNs();
        enqueue(wp->index, std::move(it));
    }
    {
        std::unique_lock<std::mutex> lk(readyMu);
        readyCv.wait(lk, [this] {
            return txnReadyCount == int(workers.size());
        });
    }
    std::uint64_t maxTxnSeen = dlogMaxTxnId;
    for (const auto &wp : workers) {
        recov.txnRolledForward += wp->txnReport.rolledForward;
        recov.txnRolledBack += wp->txnReport.rolledBack;
        recov.txnSkipped += wp->txnReport.skipped;
        maxTxnSeen = std::max(maxTxnSeen, wp->txnReport.maxTxnId);
    }
    nextTxnId = maxTxnSeen + 1;

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    LP_ASSERT(listenFd >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(cfg.port));
    LP_ASSERT(::inet_pton(AF_INET, cfg.host.c_str(),
                          &addr.sin_addr) == 1,
              "bad listen host " + cfg.host);
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("lp::server cannot bind " + cfg.host + ":" +
              std::to_string(cfg.port) + ": " +
              std::strerror(errno));
    LP_ASSERT(::listen(listenFd, 1024) == 0, "listen() failed");
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    LP_ASSERT(::getsockname(listenFd,
                            reinterpret_cast<sockaddr *>(&bound),
                            &blen) == 0,
              "getsockname() failed");
    port_ = int(ntohs(bound.sin_port));
    net::setNonBlocking(listenFd);
    writePortFile();

    loop.add(listenFd, udListen, net::kReadable);
    loop.add(wakeFd.fd(), udWake, net::kReadable);
    loop.add(stopFd.fd(), udStop, net::kReadable);

    if (!cfg.quiet) {
        inform("lp::server listening on " + cfg.host + ":" +
               std::to_string(port_) + " (" +
               store::backendName(cfg.backend) + ", " +
               std::to_string(cfg.shards) + " shards, " +
               std::to_string(recov.shardsAttached) +
               " attached, " +
               std::to_string(recov.batchesReplayed) +
               " batches replayed)");
    }
    acceptorTh = std::thread([this] { acceptorMain(); });
    started = true;
}

void
Server::Impl::join()
{
    if (acceptorTh.joinable())
        acceptorTh.join();
    for (auto &wp : workers)
        if (wp->th.joinable())
            wp->th.join();
    if (!cfg.quiet && started && !shutdownInformed) {
        shutdownInformed = true;
        inform("lp::server on port " + std::to_string(port_) +
               " shut down cleanly");
    }
}

Server::Impl::~Impl()
{
    if (started && !finished.load(std::memory_order_acquire))
        stopFd.signal();
    join();
    if (listenFd >= 0)
        ::close(listenFd);
}

Server::Server(ServerConfig cfg)
    : impl(std::make_unique<Impl>(std::move(cfg)))
{
}

Server::~Server() = default;

void
Server::start()
{
    impl->start();
}

void
Server::requestStop()
{
    impl->stopFd.signal();
}

void
Server::join()
{
    impl->join();
}

void
Server::stop()
{
    requestStop();
    join();
}

int
Server::port() const
{
    return impl->port_;
}

const ServerRecovery &
Server::recovery() const
{
    return impl->recov;
}

void
Server::installSignalHandlers()
{
    signalStopFd.store(impl->stopFd.fd(), std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

std::string
Server::metricsText() const
{
    return impl->metricsTextNow();
}

} // namespace lp::server
