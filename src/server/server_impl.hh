/**
 * @file
 * Internal definition of Server::Impl, shared by the server's
 * translation units:
 *
 *   server.cc        -- lifecycle + the acceptor datapath (accept,
 *                       frame decode, reply flush) on lp::net
 *   server_worker.cc -- the shared-nothing shard worker loop
 *   server_txn.cc    -- the transaction coordinator (routing, vote
 *                       collection, the decision append) and the
 *                       worker-side glue -- parking, replies -- around
 *                       each worker's txn::Participant
 *                       (txn/participant.hh), which runs the
 *                       protocol steps themselves
 *   server_stats.cc  -- METRICS exposition rendering
 *
 * Not installed, not part of the public API: include server/server.hh
 * from outside.
 */

#ifndef LP_SERVER_SERVER_IMPL_HH
#define LP_SERVER_SERVER_IMPL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/commit_pipeline.hh"
#include "kernels/env.hh"
#include "net/connection.hh"
#include "net/event_loop.hh"
#include "obs/flight.hh"
#include "obs/histogram.hh"
#include "obs/trace.hh"
#include "pmem/arena.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "store/kv_store.hh"
#include "txn/decision_log.hh"
#include "txn/participant.hh"

namespace lp::server
{

using Clock = std::chrono::steady_clock;

/** A payload-less response (Ok/NotFound/Retry/Err ack). */
inline Response
statusReply(Status s, std::uint64_t id)
{
    Response r;
    r.status = s;
    r.id = id;
    return r;
}

/**
 * One BATCH request in flight: its sub-ops scatter across workers;
 * the worker that releases the last acknowledgement emits the single
 * reply.
 */
struct BatchCtx
{
    BatchCtx(std::uint32_t n, std::uint64_t conn, std::uint64_t req,
             std::uint64_t trace)
        : remaining(n), connId(conn), reqId(req), traceId(trace)
    {
    }

    std::atomic<std::uint32_t> remaining;
    std::uint64_t connId;
    std::uint64_t reqId;
    std::uint64_t traceId;  ///< request flow id (obs::traceIdOf)

    /**
     * Set by any worker that refused its sub-ops because its shard is
     * quarantined; the final reply then reports Fault. The release
     * half of the remaining fetch_sub publishes it to the replier.
     */
    std::atomic<bool> faulted{false};
};

/**
 * One SCAN request in flight: the acceptor fans one sub-scan out to
 * every worker (each worker owns one shard of the key space), each
 * worker fills only its own partial-result slot, and the last one to
 * finish merges the sorted partials and posts the single reply. The
 * release half of the fetch_sub publishes each worker's slot to the
 * merging worker's acquire.
 */
struct ScanCtx
{
    ScanCtx(int shards, std::uint64_t conn, std::uint64_t req,
            std::uint32_t lim, std::uint64_t trace)
        : remaining(shards), connId(conn), reqId(req), limit(lim),
          traceId(trace), parts(std::size_t(shards))
    {
    }

    std::atomic<int> remaining;
    std::uint64_t connId;
    std::uint64_t reqId;
    std::uint32_t limit;
    std::uint64_t traceId;  ///< request flow id (obs::traceIdOf)
    std::vector<std::vector<ScanRecord>> parts;  ///< slot per shard
};

/**
 * One TXN request in flight: the txn::TxnPlan (wire ops, read slots,
 * one part per participant shard) plus the coordinator's state. The
 * acceptor is the coordinator: it splits the plan and fans a Txn item
 * out to each owning worker. Workers lock, resolve, and vote back
 * to the acceptor; once every part has voted the acceptor either
 * appends the COMMIT record -- the transaction's linearization and
 * durability point -- and fans out TxnApply, or tells the prepared
 * parts to roll back (TxnAbort).
 *
 * Field ownership: the acceptor writes the plan before fan-out; each
 * worker writes only its own part and the read slots its gets own.
 * Every handoff rides a mutex (worker queues, the vote queue), so
 * no field needs to be atomic except the vote counter and the abort
 * flags, which workers race on.
 */
struct TxnCtx : txn::TxnPlan
{
    std::uint64_t txnid = 0;
    std::uint64_t connId = 0;
    std::uint64_t reqId = 0;
    std::uint64_t tStartNs = 0;
    std::uint64_t traceId = 0;  ///< request flow id (obs::traceIdOf)
    bool fastPath = false;      ///< txn::fastPath() at routing

    std::atomic<int> votesLeft{0};
    std::atomic<int> abortedParts{0};
    std::atomic<bool> faulted{false};  ///< abort cause was quarantine
};

/** One operation handed from the acceptor to a worker. */
struct OpItem
{
    enum class Kind : std::uint8_t
    {
        Get,
        Put,
        Del,
        Scan,
        Txn,        ///< lock + resolve + vote one participant part
        TxnApply,   ///< decision = commit: apply the part's write-set
        TxnAbort,   ///< decision = abort: free the vote, drop locks
        TxnRecover, ///< startup: replay the txn decision rules
    };

    Kind kind;
    std::uint64_t connId = 0;
    std::uint64_t reqId = 0;
    std::uint64_t key = 0;    ///< SCAN: start_key
    std::uint64_t value = 0;  ///< SCAN: limit
    std::uint64_t tEnqNs = 0;  ///< enqueue time (queue-wait latency)
    std::uint64_t traceId = 0; ///< request flow id (obs::traceIdOf)
    std::shared_ptr<BatchCtx> batch;  ///< set for BATCH sub-ops
    std::shared_ptr<ScanCtx> scan;    ///< set for SCAN sub-scans
    std::shared_ptr<TxnCtx> txn;      ///< set for Txn* items
    std::size_t part = 0;             ///< Txn*: index into txn->parts
};

/** One response traveling worker -> acceptor. */
struct ReplyMsg
{
    std::uint64_t connId;
    std::uint64_t tPostNs = 0;  ///< post time (ack-path latency)
    Response resp;
};

/**
 * Per-connection acceptor-side state: the net::Connection datapath
 * state machine plus the request-routing bookkeeping layered on it.
 */
struct Conn
{
    Conn(int fd, net::DatapathStats *stats) : nc(fd, stats) {}

    net::Connection nc;
    std::uint64_t id = 0;
    std::uint64_t tOpenNs = 0;   ///< accept time (lifecycle span)
    std::uint32_t inflight = 0;  ///< worker-routed ops outstanding
    bool wantWrite = false;      ///< EPOLLOUT currently armed

    /**
     * Backpressure: set when the outbuf passed cfg.outbufLimitBytes
     * -- decoding (and reading) stops so a slow reader cannot balloon
     * server memory. Cleared by flushDatapath() below the low
     * watermark; the clearer must re-run readable(), because the
     * edge-triggered loop will never re-report bytes that already
     * arrived.
     */
    bool readPaused = false;
};

/** epoll user-data sentinels; connection ids start above these. */
constexpr std::uint64_t udListen = 0;
constexpr std::uint64_t udWake = 1;
constexpr std::uint64_t udStop = 2;
constexpr std::uint64_t firstConnId = 16;

struct Server::Impl
{
    explicit Impl(ServerConfig c)
        : cfg(std::move(c)),
          loop(std::size_t(cfg.maxConns) + 16)
    {
    }
    ~Impl();

    ServerConfig cfg;
    ServerRecovery recov;

    /// @name One shared-nothing worker per shard
    /// @{

    struct Worker
    {
        int index = 0;
        Impl *srv = nullptr;
        std::thread th;

        // Queue: acceptor -> worker (rule 2 of the env.hh contract:
        // ownership handoff synchronizes through this mutex).
        std::mutex mu;
        std::condition_variable cv;
        std::deque<OpItem> q;
        bool stopFlag = false;

        // Stats mirrors the acceptor may read (contract rule 3);
        // the pipeline-derived ones are refreshed from the shard's
        // CommitPipeline counters after every worker round.
        std::atomic<std::uint64_t> statGets{0};
        std::atomic<std::uint64_t> statMuts{0};
        std::atomic<std::uint64_t> statScans{0};
        std::atomic<std::uint64_t> statAcks{0};
        std::atomic<std::uint64_t> statCommittedEpoch{0};
        std::atomic<std::uint64_t> statQueueDepth{0};
        std::atomic<std::uint64_t> statEpochs{0};
        std::atomic<std::uint64_t> statFolds{0};
        std::atomic<std::uint64_t> statTxnCommits{0};  ///< fast path
        std::atomic<std::uint64_t> statTxnAborts{0};   ///< fast path

        // Request-lifecycle histograms, recorded by this worker;
        // the acceptor reads them for METRICS under the
        // obs::Histogram single-writer/any-reader contract (the
        // store-side stage/commit/fold/recover histograms live in
        // shard->obs()).
        obs::Histogram queueNs;       ///< enqueue -> worker dequeue
        obs::Histogram commitWaitNs;  ///< staged -> ack released
        obs::Histogram txnCommitNs;   ///< fast-path TXN accept -> ack
        obs::Histogram txnAbortNs;    ///< fast-path TXN accept -> abort

        /** This worker's trace ring; null when tracing is off. */
        obs::TraceRing *ring = nullptr;

        /**
         * Crash-persistent flight recorder, carved out of the FRONT
         * of this worker's shard arena (offset 64 -- the postmortem
         * placement contract) and teed from `ring`; null when
         * cfg.flightEvents == 0. Sealed as the shard's committed
         * epoch advances and on graceful drain.
         */
        std::unique_ptr<obs::FlightRing> flight;

        // Online-scrub throttle state (worker thread only).
        Clock::time_point lastScrub{};
        bool quarantineLogged = false;

        // Everything below is touched only by the worker thread.
        kernels::NativeEnv env;
        std::unique_ptr<pmem::PersistentArena> arena;
        std::unique_ptr<store::KvStore<kernels::NativeEnv>> kv;
        /**
         * The one shard of `kv`, bound by openStore: the worker's
         * ops, commits and scrub call it directly. The acceptor
         * reads only its any-thread accessors (quarantined, obs,
         * media counters, index gauges).
         */
        store::Shard<kernels::NativeEnv> *shard = nullptr;
        store::RecoveryReport report;
        bool attached = false;

        // Cross-shard transaction state (docs/txn_design.md): this
        // shard's side of the commit protocol -- lock table, PREPARE
        // table, gated slot frees. All of it is worker-thread-only
        // except txnReport, which start() reads after the
        // txn-recovery latch.
        std::unique_ptr<txn::Participant<kernels::NativeEnv>>
            participant;
        txn::TxnRecoveryReport txnReport;

        /** A part parked on a lock-table Waiting verdict. */
        struct ParkedTxn
        {
            std::shared_ptr<TxnCtx> ctx;
            std::size_t part = 0;
            std::size_t next = 0;  ///< lock-plan index awaited
        };
        std::unordered_map<txn::TxnId, ParkedTxn> parked;

        /**
         * Deferred work, in strict arrival order. The acceptor
         * enqueues every multi-shard operation (scan pieces,
         * transaction parts) to all shards from one program point,
         * so per-shard arrival order is a consistent cut of the
         * global order; cross-shard atomicity of scans rests
         * entirely on every shard preserving it. Hence one FIFO,
         * not per-kind lists: when the item at the front must wait
         * (a scan blocked by a prepared-but-unapplied part's
         * locks), everything behind it waits too. Letting ANY
         * later item overtake re-creates the torn read -- e.g. a
         * part overtaking a deferred scan prepares/applies inside
         * the scan's cut on this shard only, and a scan overtaking
         * a queued part runs pre-part here while its sibling
         * sub-scan on a shard where the same transaction already
         * prepared defers and runs post-apply. Decision fan-outs
         * (TxnApply/TxnAbort) bypass the queue: they are the
         * drain, and their transactions are strictly older than
         * everything queued here. Which items may defer is
         * deferrable(); when the front must wait is deferNow(),
         * over the participant's scanMustWait/writeMustWait.
         */
        std::deque<OpItem> deferred;

        /**
         * The worker's one ack queue: mutations awaiting their
         * epoch's commit, in staging (hence epoch) order, with who
         * to reply to. Empty at the end of every round.
         */
        struct Pending
        {
            std::uint64_t connId;  ///< 0: internal apply, no reply
            std::uint64_t reqId;
            std::uint64_t epoch;
            std::uint64_t tStagedNs;  ///< commit-wait latency start
            // Defaulted from here on, so designated initializers
            // may leave them out.
            std::uint64_t traceId = 0;  ///< request flow id
            std::shared_ptr<BatchCtx> batch = nullptr;
            std::shared_ptr<TxnCtx> txn = nullptr;  ///< fast-path reply
            std::string txnBody = {};  ///< encoded reads (with txn)
        };
        std::deque<Pending> pending;
    };

    std::vector<std::unique_ptr<Worker>> workers;
    std::atomic<int> workersExited{0};

    // Startup latch: workers recover before the port binds. The
    // second counter latches the txn-recovery phase, which needs the
    // decision index and therefore runs after the first latch.
    std::mutex readyMu;
    std::condition_variable readyCv;
    int readyCount = 0;
    int txnReadyCount = 0;
    /// @}

    /// @name Acceptor state
    /// @{
    net::EventLoop loop;  ///< ready batch sized from cfg.maxConns
    net::WakeFd wakeFd;   ///< workers ring this when replies queue
    net::WakeFd stopFd;   ///< requestStop()/signals ring this
    int listenFd = -1;
    int port_ = 0;
    std::thread acceptorTh;
    bool started = false;
    bool shutdownInformed = false;  ///< join() may run twice
    bool wantShutdown_ = false;     ///< acceptor thread only
    std::atomic<bool> finished{false};

    std::mutex replyMu;
    std::vector<ReplyMsg> replies;

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>
        conns;  // acceptor-only
    std::uint64_t nextConnId = firstConnId;

    /** Per-fill read budget: one fire-hosing connection yields after
     *  this many bytes so a ready batch shares the loop fairly. */
    static constexpr std::size_t kReadBudget = 256 * 1024;

    /// Datapath counters shared by every connection (acceptor
    /// writes; METRICS snapshot cross-thread).
    net::DatapathStats netStats;

    std::atomic<std::uint64_t> statConns{0};
    std::atomic<std::uint64_t> statAccepted{0};
    std::atomic<std::uint64_t> statRetries{0};
    std::atomic<std::uint64_t> statErrs{0};
    std::atomic<std::uint64_t> statFaults{0};
    std::atomic<std::uint64_t> statMalformed{0};
    std::atomic<std::uint64_t> statTxnCommits{0};  ///< general path
    std::atomic<std::uint64_t> statTxnAborts{0};   ///< general path

    // Acceptor-recorded request-lifecycle histograms (single writer:
    // the acceptor thread; METRICS renders on the same thread).
    obs::Histogram parseNs;  ///< bytes on the wire -> decoded request
    obs::Histogram ackNs;    ///< worker posted reply -> encoded
    obs::Histogram txnCommitNs;  ///< general path: accept -> decision
    obs::Histogram txnAbortNs;   ///< general path: accept -> abort

    /// @name Transaction coordinator (docs/txn_design.md)
    /// The acceptor assigns ids, collects votes, and owns the
    /// persistent decision ring (dataDir/txnlog.lpdb). Workers post
    /// their votes through txnMu and read the decision index only
    /// during the startup recovery phase (ordered by the worker-queue
    /// handoff).
    /// @{
    std::mutex txnMu;
    /** One entry per participant vote; an aborting vote has bumped
     *  ctx->abortedParts first. */
    std::vector<std::shared_ptr<TxnCtx>> txnVotes;

    kernels::NativeEnv txnEnv;
    std::unique_ptr<pmem::PersistentArena> txnArena;
    std::unique_ptr<txn::DecisionLog<kernels::NativeEnv>> dlog;
    std::uint64_t dlogMaxTxnId = 0;  ///< largest id the ring recalls
    std::uint64_t nextTxnId = 1;     ///< acceptor-thread only
    /// @}

    // Tracing (cfg.traceOut non-empty): the collector owns every
    // ring; workers and the acceptor hold borrowed pointers.
    std::unique_ptr<obs::TraceCollector> trace;
    obs::TraceRing *acceptRing = nullptr;
    /// @}

    std::string
    shardPath(int i) const
    {
        return cfg.dataDir + "/shard-" + std::to_string(i) + ".lpdb";
    }

    // server_worker.cc -- the shard worker loop.
    void openStore(Worker &w);
    void releaseAck(Worker &w, Worker::Pending &p);
    std::size_t releaseCommitted(Worker &w);
    static bool deferrable(OpItem::Kind k);
    bool deferNow(Worker &w, const OpItem &op) const;
    void dispatchOp(Worker &w, OpItem &op);
    void retryDeferred(Worker &w);
    void processOp(Worker &w, OpItem &op);
    void workerMain(Worker &w);
    void enqueue(int shard, OpItem &&op);

    // server_txn.cc -- coordinator + worker-side txn glue.
    void postTxnVote(std::shared_ptr<TxnCtx> ctx);
    void serviceLockEvents(Worker &w, txn::LockTable::Events ev);
    void unparkTxn(Worker &w, txn::TxnId id, bool granted,
                   txn::LockTable::Events &ev);
    bool acquireTxnLocks(Worker &w,
                         const std::shared_ptr<TxnCtx> &ctx,
                         std::size_t partIdx, std::size_t next,
                         txn::LockTable::Events &ev);
    void abortTxnPart(Worker &w, const std::shared_ptr<TxnCtx> &ctx,
                      bool faulted);
    void prepareTxnPart(Worker &w,
                        const std::shared_ptr<TxnCtx> &ctx,
                        std::size_t partIdx);
    void replyFastTxn(Worker &w, const TxnCtx &ctx, std::string body);
    void routeTxn(Conn &c, Request &req);
    void drainTxnVotes();
    void finishTxn(const std::shared_ptr<TxnCtx> &ctx);
    void openTxnLog();

    // server_stats.cc -- observability rendering.
    std::string metricsTextNow() const;

    // server.cc -- lifecycle + acceptor datapath.
    void postReply(std::uint64_t connId, Response r);
    void closeConn(std::uint64_t id);
    bool flushDatapath(Conn &c);
    void localReply(Conn &c, Response r);
    void handleRequest(Conn &c, Request &req);
    void readable(std::uint64_t connId);
    void writable(std::uint64_t connId);
    void acceptPending();
    void drainReplies();
    void acceptorMain();
    void shutdownSequence();
    void writePortFile();
    void start();
    void join();
};

} // namespace lp::server

#endif // LP_SERVER_SERVER_IMPL_HH
