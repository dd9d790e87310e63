/**
 * @file
 * End-to-end transaction tests against a live lp::server: commit and
 * read semantics over the wire on every backend, deterministic
 * wait-die abort surfacing (Status::Aborted), a full PREPARE table
 * aborting transactions rather than the server, the 4-reader/2-writer
 * isolation stress -- a multi-shard SCAN's k-way merge must never
 * observe a partial transaction, so every scan of the account table
 * sees the exact invariant balance total -- and post-restart checks:
 * committed transactions survive, the stats document reports them,
 * and the reopened server keeps serving transactions.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "store/layout.hh"

using namespace lp;
using namespace lp::server;

namespace
{

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/lpserver-txn-XXXXXX";
    const char *d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

void
connectToServer(Client &c, const std::string &dataDir)
{
    const int port = waitForPortFile(dataDir, 30000);
    ASSERT_GT(port, 0) << "server did not publish a port";
    ASSERT_TRUE(c.connectTo("127.0.0.1", port));
}

TxnOp
top(TxnOp::Kind k, std::uint64_t key, std::uint64_t value = 0)
{
    TxnOp o;
    o.kind = k;
    o.key = key;
    o.value = value;
    return o;
}

const store::Backend kBackends[] = {store::Backend::Lp,
                                    store::Backend::EagerPerOp,
                                    store::Backend::Wal};

class ServerTxnBackends
    : public ::testing::TestWithParam<store::Backend>
{
};

/**
 * Wire-level semantics on every backend: read-your-writes inside the
 * transaction, Add resolution, cross-shard atomicity, and values
 * visible to plain GETs afterwards.
 */
TEST_P(ServerTxnBackends, CommitsAndReadsOverTheWire)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 4;
    cfg.backend = GetParam();
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    connectToServer(c, dir);

    // Keys 1..8 land on several shards (store::shardOfKey hashes), so this
    // exercises both commit paths across the backends.
    auto res = c.txn({top(TxnOp::Kind::Get, 1),
                      top(TxnOp::Kind::Put, 1, 10),
                      top(TxnOp::Kind::Get, 1),
                      top(TxnOp::Kind::Add, 2, 5),
                      top(TxnOp::Kind::Put, 3, 30),
                      top(TxnOp::Kind::Del, 3),
                      top(TxnOp::Kind::Get, 3)});
    ASSERT_TRUE(res.has_value());
    ASSERT_EQ(res->status, Status::Ok);
    ASSERT_EQ(res->reads.size(), 3u);
    EXPECT_FALSE(res->reads[0].found);  // pre-state
    EXPECT_TRUE(res->reads[1].found);   // own write
    EXPECT_EQ(res->reads[1].value, 10u);
    EXPECT_FALSE(res->reads[2].found);  // own delete

    const auto g1 = c.get(1);
    ASSERT_TRUE(g1 && g1->status == Status::Ok);
    EXPECT_EQ(g1->value, 10u);
    const auto g2 = c.get(2);
    ASSERT_TRUE(g2 && g2->status == Status::Ok);
    EXPECT_EQ(g2->value, 5u);
    const auto g3 = c.get(3);
    ASSERT_TRUE(g3 && g3->status == Status::NotFound);

    // Read-only transaction: consistent snapshot of both keys.
    auto ro = c.txn({top(TxnOp::Kind::Get, 1),
                     top(TxnOp::Kind::Get, 2)});
    ASSERT_TRUE(ro && ro->status == Status::Ok);
    ASSERT_EQ(ro->reads.size(), 2u);
    EXPECT_EQ(ro->reads[0].value, 10u);
    EXPECT_EQ(ro->reads[1].value, 5u);

    srv.stop();
}

TEST_P(ServerTxnBackends, OutOfRangeKeyIsRejected)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = GetParam();
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    connectToServer(c, dir);
    auto res = c.txn({top(TxnOp::Kind::Put, ~std::uint64_t(0), 1)});
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, Status::Err);
    srv.stop();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ServerTxnBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return store::backendName(info.param);
                         });

/** @p n keys routed to shard @p shard of 2, from 1000 up. */
std::vector<std::uint64_t>
keysOnShard(int shard, std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1000; keys.size() < n; ++k)
        if (store::shardOfKey(k, 2) == shard)
            keys.push_back(k);
    return keys;
}

class ServerRoundCommit
    : public ::testing::TestWithParam<store::Backend>
{
};

/**
 * A worker commits its shard's open epoch at the end of every round,
 * so a lone PUT and a lone fast-path TXN each come back well inside
 * 1 s.
 */
TEST_P(ServerRoundCommit, LoneWritesAckPromptly)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = GetParam();
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client c;
    connectToServer(c, dir);
    using Ms = std::chrono::milliseconds;
    const auto elapsed = [](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration_cast<Ms>(
            std::chrono::steady_clock::now() - t);
    };

    auto t0 = std::chrono::steady_clock::now();
    const auto p = c.put(5, 50, 10000);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->status, Status::Ok);
    EXPECT_LT(elapsed(t0), Ms(1000)) << "PUT ack was held";

    // One key: a single-shard (fast-path) transaction.
    t0 = std::chrono::steady_clock::now();
    const auto t = c.txn({top(TxnOp::Kind::Add, 5, 1)}, 10000);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->status, Status::Ok);
    EXPECT_LT(elapsed(t0), Ms(1000)) << "TXN ack was held";

    const auto g = c.get(5, 10000);
    ASSERT_TRUE(g && g->status == Status::Ok);
    EXPECT_EQ(g->value, 51u);
    srv.stop();
}

/**
 * The commit rule does not wait for an idle queue: while a second
 * connection keeps a window of GETs in flight at the same shard, a
 * PUT there is still acked well inside 1 s.
 */
TEST_P(ServerRoundCommit, PutAcksUnderPipelinedGets)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = GetParam();
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    const auto keys = keysOnShard(0, 2);
    Client reader;
    connectToServer(reader, dir);
    std::atomic<bool> stop{false};
    std::atomic<bool> readerDone{false};
    std::atomic<std::uint64_t> gets{0};
    std::thread load([&] {
        // A 64-deep window: every reply is answered with a new GET
        // until stop, then the window drains.
        const auto get = [&] {
            Request r;
            r.op = Op::Get;
            r.id = reader.nextId();
            r.key = keys[1];
            return r;
        };
        std::vector<Request> burst;
        for (int i = 0; i < 64; ++i)
            burst.push_back(get());
        int inflight = reader.sendRequests(burst) ? 64 : 0;
        while (inflight > 0 && reader.recvResponse(10000)) {
            --inflight;
            gets.fetch_add(1, std::memory_order_relaxed);
            if (!stop.load(std::memory_order_relaxed) &&
                reader.sendRequest(get()))
                ++inflight;
        }
        readerDone.store(true);
    });
    // Start the PUT once the GET stream is flowing.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (gets.load(std::memory_order_relaxed) < 1000 &&
           !readerDone.load() &&
           std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const bool flowing = !readerDone.load();

    Client writer;
    connectToServer(writer, dir);
    const auto t0 = std::chrono::steady_clock::now();
    const auto p = writer.put(keys[0], 7, 10000);
    const auto took = std::chrono::steady_clock::now() - t0;
    const std::uint64_t getsAtAck = gets.load();
    stop.store(true);
    load.join();

    EXPECT_TRUE(flowing) << "GET stream ended before the PUT";
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->status, Status::Ok);
    EXPECT_LT(took, std::chrono::seconds(1)) << "PUT ack was held";
    EXPECT_GE(getsAtAck, 1000u);
    srv.stop();
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ServerRoundCommit,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return store::backendName(info.param);
                         });

/** @p frames full BATCH frames of puts over @p keys, ids from
 *  @p firstId: 4096 puts each, a backlog its worker needs a few
 *  milliseconds per frame to work off. */
std::vector<Request>
batchBacklog(const std::vector<std::uint64_t> &keys, int frames,
             std::uint64_t firstId)
{
    std::vector<Request> backlog(static_cast<std::size_t>(frames));
    for (std::size_t b = 0; b < backlog.size(); ++b) {
        backlog[b].op = Op::Batch;
        backlog[b].id = firstId + b;
        for (std::size_t i = 0; i < maxBatchOps; ++i)
            backlog[b].batch.push_back(
                BatchOp{true, keys[i % keys.size()], i});
    }
    return backlog;
}

/**
 * Hold @p key's write lock on its shard (of 2) by contention, not a
 * timer. @p loader queues 16 BATCH frames (64k puts) on the other
 * shard; then @p holder starts a transaction that puts @p key =
 * @p value and also writes a key on the other shard. It prepares on
 * @p key's shard at once, but its decision -- and the lock release
 * -- wait for the other shard's vote behind the backlog, tens of
 * milliseconds. Returns once the lock is held; the transaction's
 * reply (id 1) and the loader's 16 replies come later.
 */
void
holdLockBehindBacklog(Client &loader, Client &holder, std::uint64_t key,
                      std::uint64_t value)
{
    const auto away = keysOnShard(1 - store::shardOfKey(key, 2), 64);
    ASSERT_TRUE(loader.sendRequests(batchBacklog(away, 16, 100)));

    // A GET of the key follows the transaction on the same
    // connection. The acceptor decodes one connection's frames in
    // order and the key's worker runs its queue in order, so once
    // the GET is answered the transaction holds its (older) id and
    // the write lock. A prepared write is invisible to point reads,
    // so the GET does not wait for it.
    Request r;
    r.op = Op::Txn;
    r.id = 1;
    r.txn = {top(TxnOp::Kind::Put, key, value),
             top(TxnOp::Kind::Put, away[0], 1)};
    Request probe;
    probe.op = Op::Get;
    probe.id = 2;
    probe.key = key;
    ASSERT_TRUE(holder.sendRequests({r, probe}));
    const auto first = holder.recvResponse(10000);
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->id, 2u)
        << "the transaction committed before the backlog drained";
}

/** Collect the held transaction's and the backlog's replies. */
void
finishHeldLock(Client &loader, Client &holder)
{
    const auto held = holder.recvResponse(10000);
    ASSERT_TRUE(held.has_value());
    EXPECT_EQ(held->id, 1u);
    EXPECT_EQ(held->status, Status::Ok);
    for (int b = 0; b < 16; ++b) {
        const auto done = loader.recvResponse(10000);
        ASSERT_TRUE(done.has_value());
        EXPECT_EQ(done->status, Status::Ok);
    }
}

/**
 * Wait-die abort under contention: while a cross-shard transaction
 * holds key 42's write lock (holdLockBehindBacklog), a younger
 * transaction on 42 must die with Status::Aborted, and a backoff
 * client must count the abort and commit once the backlog is worked
 * off and the decision releases the lock.
 */
TEST(ServerTxnAbort, YoungerTxnDiesAndBackoffRecovers)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = store::Backend::Lp;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client loader, holder, contender;
    connectToServer(loader, dir);
    connectToServer(holder, dir);
    connectToServer(contender, dir);
    holdLockBehindBacklog(loader, holder, 42, 7);
    if (HasFatalFailure())
        return;

    // Younger txn on the same key: wait-die says die.
    auto aborted = contender.txn({top(TxnOp::Kind::Add, 42, 1)});
    ASSERT_TRUE(aborted.has_value());
    EXPECT_EQ(aborted->status, Status::Aborted);

    // Backoff path: first attempt aborts again (still inside the
    // window), later ones land after the decision releases the lock.
    RetryPolicy policy;
    policy.maxAttempts = 40;
    policy.baseDelayUs = 20000;
    policy.capDelayUs = 200000;
    auto res = contender.txnBackoff({top(TxnOp::Kind::Add, 42, 1)},
                                    policy, 5000);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_GE(contender.retryCounters().aborts, 1u);
    finishHeldLock(loader, holder);

    const auto g = contender.get(42);
    ASSERT_TRUE(g && g->status == Status::Ok);
    EXPECT_EQ(g->value, 8u);  // 7 put + 1 add
    srv.stop();
}

/**
 * Releasing an ack can stage new work, and the worker must commit
 * that too before it idles. A transaction prepared on key 42's shard
 * (holdLockBehindBacklog) makes plain writes to any write-locked key
 * there wait. One write then sends a BATCH on that shard, a
 * fast-path transaction putting key b, and a PUT of b: the PUT
 * defers behind the transaction's lock, and runs -- staging a new
 * mutation -- only when the transaction's ack is released at the end
 * of the round. Both must be acked, in order.
 */
TEST(ServerTxnDrain, DeferredPutRestartedByAnAckCommits)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = store::Backend::Lp;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client loader, holder, c;
    connectToServer(loader, dir);
    connectToServer(holder, dir);
    connectToServer(c, dir);
    holdLockBehindBacklog(loader, holder, 42, 7);
    if (HasFatalFailure())
        return;

    const int shard = store::shardOfKey(42, 2);
    const auto near = keysOnShard(shard, 65);
    const std::uint64_t b = near[64];
    std::vector<Request> burst =
        batchBacklog({near.begin(), near.begin() + 64}, 1, 10);
    Request t;
    t.op = Op::Txn;
    t.id = 11;
    t.txn = {top(TxnOp::Kind::Put, b, 1)};
    Request p;
    p.op = Op::Put;
    p.id = 12;
    p.key = b;
    p.value = 2;
    burst.push_back(t);
    burst.push_back(p);
    ASSERT_TRUE(c.sendRequests(burst));
    for (const std::uint64_t id : {10u, 11u, 12u}) {
        const auto r = c.recvResponse(10000);
        ASSERT_TRUE(r.has_value()) << "no reply for id " << id;
        EXPECT_EQ(r->id, id);
        EXPECT_EQ(r->status, Status::Ok);
    }
    finishHeldLock(loader, holder);

    const auto g = c.get(b, 10000);
    ASSERT_TRUE(g && g->status == Status::Ok);
    EXPECT_EQ(g->value, 2u);  // the PUT ran after the transaction
    srv.stop();
}

/**
 * A full PREPARE table refuses, it does not crash: with one slot per
 * shard, concurrent cross-shard transfers (disjoint accounts, so no
 * lock conflicts) race for the slots, and a prepare that still finds
 * its table full after the checkpoint pressure valve aborts the whole
 * transaction. Every reply is Ok or Aborted, aborted transfers leave
 * no trace, and once the burst drains the slots are free again.
 */
TEST(ServerTxnPrepareFull, FullPrepareTableAbortsAndRecovers)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 2;
    cfg.backend = store::Backend::Lp;
    cfg.txnPrepareSlots = 1;
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    // One (debit, credit) account pair per connection, always on
    // different shards so every transfer takes the general path.
    constexpr int kConns = 4;
    constexpr int kTransfers = 100;
    constexpr std::uint64_t kInitial = 1000;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (std::uint64_t k = 1; pairs.size() < std::size_t(kConns); k += 2)
        if (store::shardOfKey(k, 2) != store::shardOfKey(k + 1, 2))
            pairs.emplace_back(k, k + 1);
    {
        Client init;
        connectToServer(init, dir);
        for (const auto &[a, b] : pairs)
            for (const std::uint64_t k : {a, b}) {
                const auto p = init.putBackoff(k, kInitial);
                ASSERT_TRUE(p && p->status == Status::Ok);
            }
    }

    std::atomic<bool> failed{false};
    std::atomic<int> aborts{0};
    std::vector<std::uint64_t> moved(kConns, 0);  // committed total
    std::vector<std::thread> threads;
    for (int t = 0; t < kConns; ++t) {
        threads.emplace_back([&, t] {
            Client c;
            const int port = waitForPortFile(dir, 30000);
            if (port <= 0 || !c.connectTo("127.0.0.1", port)) {
                failed.store(true);
                return;
            }
            const auto [a, b] = pairs[std::size_t(t)];
            for (int i = 0; i < kTransfers; ++i) {
                const std::uint64_t amt = 1 + std::uint64_t(i % 5);
                const auto res =
                    c.txn({top(TxnOp::Kind::Add, a,
                               std::uint64_t(0) - amt),
                           top(TxnOp::Kind::Add, b, amt)},
                          10000);
                if (!res || (res->status != Status::Ok &&
                             res->status != Status::Aborted)) {
                    failed.store(true);
                    return;
                }
                if (res->status == Status::Ok)
                    moved[std::size_t(t)] += amt;
                else
                    aborts.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    ASSERT_FALSE(failed.load())
        << "a reply was neither Ok nor Aborted, or the server died";

    Client c;
    connectToServer(c, dir);
    std::uint64_t sum = 0;
    for (int t = 0; t < kConns; ++t) {
        const auto [a, b] = pairs[std::size_t(t)];
        const auto ga = c.get(a);
        const auto gb = c.get(b);
        ASSERT_TRUE(ga && ga->status == Status::Ok);
        ASSERT_TRUE(gb && gb->status == Status::Ok);
        EXPECT_EQ(ga->value, kInitial - moved[std::size_t(t)]);
        EXPECT_EQ(gb->value, kInitial + moved[std::size_t(t)]);
        sum += ga->value + gb->value;
    }
    EXPECT_EQ(sum, 2 * kConns * kInitial)
        << "an aborted transfer left half its writes";

    // The burst is over: the single slot per shard must be free (or
    // freeable by the pressure valve), so a lone transfer commits.
    const auto [a, b] = pairs[0];
    const auto res = c.txn({top(TxnOp::Kind::Add, a, 1),
                            top(TxnOp::Kind::Add, b,
                                std::uint64_t(0) - 1)},
                           10000);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, Status::Ok);
    srv.stop();
}

/**
 * The isolation stress plus post-restart checks (one server lifetime
 * feeding the next): 2 writer threads shuffle balance between 64
 * accounts with cross-shard transfer transactions while 4 reader
 * threads continuously SCAN the whole table. Shards partition the key
 * space, so a SCAN is a fan-out + k-way merge across every worker; if
 * it ever observed half a transfer, the scanned total would drift off
 * the invariant. Afterwards the server restarts from the same dataDir
 * and the balances -- and new transactions -- must still be intact.
 */
TEST(ServerTxnIsolation, ScansNeverSeePartialTransfers)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 4;
    cfg.backend = store::Backend::Lp;
    cfg.quiet = true;

    constexpr std::uint64_t kAccounts = 64;
    constexpr std::uint64_t kInitial = 1000;
    constexpr std::uint64_t kTotal = kAccounts * kInitial;
    constexpr int kTransfersPerWriter = 150;

    {
        Server srv(cfg);
        srv.start();

        {
            Client init;
            connectToServer(init, dir);
            for (std::uint64_t k = 1; k <= kAccounts; ++k) {
                const auto p = init.putBackoff(k, kInitial);
                ASSERT_TRUE(p && p->status == Status::Ok);
            }
        }

        std::atomic<bool> writersDone{false};
        std::atomic<int> scanViolations{0};
        std::atomic<std::uint64_t> scansRun{0};
        std::atomic<bool> failed{false};

        std::vector<std::thread> readers;
        for (int t = 0; t < 4; ++t) {
            readers.emplace_back([&, t] {
                Client c;
                const int port = waitForPortFile(dir, 30000);
                if (port <= 0 || !c.connectTo("127.0.0.1", port)) {
                    failed.store(true);
                    return;
                }
                while (!writersDone.load(std::memory_order_acquire)) {
                    const auto recs = c.scan(0, kAccounts + 8, 10000);
                    if (!recs) {
                        failed.store(true);
                        return;
                    }
                    std::uint64_t sum = 0;
                    for (const auto &rec : *recs)
                        sum += rec.value;
                    if (recs->size() != kAccounts || sum != kTotal)
                        scanViolations.fetch_add(1);
                    scansRun.fetch_add(1);
                    (void)t;
                }
            });
        }

        std::vector<std::thread> writers;
        for (int t = 0; t < 2; ++t) {
            writers.emplace_back([&, t] {
                Client c;
                const int port = waitForPortFile(dir, 30000);
                if (port <= 0 || !c.connectTo("127.0.0.1", port)) {
                    failed.store(true);
                    return;
                }
                RetryPolicy policy;
                policy.maxAttempts = 64;
                std::uint64_t seed = 0x9e37 + std::uint64_t(t);
                for (int i = 0; i < kTransfersPerWriter; ++i) {
                    seed = seed * 6364136223846793005ull + 1442695ull;
                    const std::uint64_t a = 1 + (seed >> 33) % kAccounts;
                    std::uint64_t b = 1 + (seed >> 13) % kAccounts;
                    if (b == a)
                        b = 1 + b % kAccounts;
                    const std::uint64_t amt = 1 + (seed >> 50) % 7;
                    // Transfer: atomic or not at all. Retry until it
                    // commits so the expected total stays exact.
                    for (;;) {
                        const auto res = c.txnBackoff(
                            {top(TxnOp::Kind::Add, a,
                                 std::uint64_t(0) - amt),
                             top(TxnOp::Kind::Add, b, amt)},
                            policy, 10000);
                        if (res && res->status == Status::Ok)
                            break;
                        if (!res) {  // connection lost: test over
                            failed.store(true);
                            return;
                        }
                    }
                }
            });
        }

        for (auto &th : writers)
            th.join();
        writersDone.store(true, std::memory_order_release);
        for (auto &th : readers)
            th.join();

        ASSERT_FALSE(failed.load()) << "a client lost its connection";
        EXPECT_EQ(scanViolations.load(), 0)
            << "a SCAN observed a partial transaction";
        EXPECT_GT(scansRun.load(), 0u);

        // Final ground truth through point GETs.
        Client c;
        connectToServer(c, dir);
        std::uint64_t sum = 0;
        for (std::uint64_t k = 1; k <= kAccounts; ++k) {
            const auto g = c.get(k);
            ASSERT_TRUE(g && g->status == Status::Ok);
            sum += g->value;
        }
        EXPECT_EQ(sum, kTotal) << "transfers minted/destroyed money";

        // The scrape reports transaction traffic: the unlabelled
        // total sums both commit paths.
        const auto m = c.metrics();
        ASSERT_TRUE(m && m->status == Status::Ok);
        stats::Snapshot snap;
        ASSERT_TRUE(obs::parseExposition(m->body, snap));
        ASSERT_EQ(snap.count("lp_txn_commits"), 1u);
        EXPECT_GT(snap.at("lp_txn_commits"), 0.0);

        srv.stop();
    }

    // Restart from the same dataDir: committed transfers survive a
    // graceful shutdown (checkpoint + markClean), recovery reports no
    // in-flight transactions, and the server keeps serving them.
    {
        Server srv(cfg);
        srv.start();
        EXPECT_EQ(srv.recovery().txnRolledForward, 0u);
        EXPECT_EQ(srv.recovery().txnRolledBack, 0u);

        Client c;
        connectToServer(c, dir);
        std::uint64_t sum = 0;
        for (std::uint64_t k = 1; k <= kAccounts; ++k) {
            const auto g = c.get(k);
            ASSERT_TRUE(g && g->status == Status::Ok);
            sum += g->value;
        }
        EXPECT_EQ(sum, kTotal) << "restart lost committed transfers";

        const auto res = c.txn({top(TxnOp::Kind::Add, 1,
                                    std::uint64_t(0) - 5),
                                top(TxnOp::Kind::Add, 2, 5),
                                top(TxnOp::Kind::Get, 1)});
        ASSERT_TRUE(res && res->status == Status::Ok);
        srv.stop();
    }
}

} // namespace
