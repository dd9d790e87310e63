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
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

    // Keys 1..8 land on several shards (routeShard hashes), so this
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

/**
 * Deterministic wait-die abort: a fast-path transaction holds its
 * write locks until its epoch commits, which a huge flush deadline
 * pins far in the future; a second (younger) transaction on the same
 * key must die with Status::Aborted, and a backoff client must count
 * the abort and eventually commit once the first ack releases.
 */
TEST(ServerTxnAbort, YoungerTxnDiesAndBackoffRecovers)
{
    const std::string dir = makeTempDir();
    ServerConfig cfg;
    cfg.dataDir = dir;
    cfg.shards = 1;
    cfg.backend = store::Backend::Lp;
    cfg.batchOps = 64;
    cfg.flushDeadlineUs = 1500000;  // locks held ~1.5s
    cfg.quiet = true;
    Server srv(cfg);
    srv.start();

    Client holder, contender;
    connectToServer(holder, dir);
    connectToServer(contender, dir);

    // The holder's txn stages one write and then waits for its epoch;
    // send without receiving so the lock window stays open.
    Request r;
    r.op = Op::Txn;
    r.id = 1;
    r.txn = {top(TxnOp::Kind::Put, 42, 7)};
    ASSERT_TRUE(holder.sendRequest(r));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // Younger txn on the same key: wait-die says die.
    auto aborted = contender.txn({top(TxnOp::Kind::Add, 42, 1)});
    ASSERT_TRUE(aborted.has_value());
    EXPECT_EQ(aborted->status, Status::Aborted);

    // Backoff path: first attempt aborts again (still inside the
    // window), later ones land after the deadline flush releases.
    RetryPolicy policy;
    policy.maxAttempts = 40;
    policy.baseDelayUs = 50000;
    policy.capDelayUs = 200000;
    auto res = contender.txnBackoff({top(TxnOp::Kind::Add, 42, 1)},
                                    policy, 5000);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status, Status::Ok);
    EXPECT_GE(contender.retryCounters().aborts, 1u);

    const auto held = holder.recvResponse(10000);
    ASSERT_TRUE(held.has_value());
    EXPECT_EQ(held->status, Status::Ok);

    const auto g = contender.get(42);
    ASSERT_TRUE(g && g->status == Status::Ok);
    EXPECT_EQ(g->value, 8u);  // 7 put + 1 add
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

        // The stats document reports transaction traffic.
        const auto st = c.stats();
        ASSERT_TRUE(st && st->status == Status::Ok);
        EXPECT_NE(st->body.find("\"txn_commits\""), std::string::npos);

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
