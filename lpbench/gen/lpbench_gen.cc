/**
 * @file
 * lpbench_gen -- the benchmark's C++ load generator and in-process
 * drivers. lpbench/run.py starts `lazyper_cli serve` and calls this
 * binary; it never talks to the server any other way.
 *
 *   load     BATCH-load the record set and the transfer accounts,
 *            then SHUTDOWN (the server checkpoints on shutdown).
 *   phases   drive the served phases on one thread over at most
 *            four connections: ycsb-a closed, ycsb-a open (Poisson),
 *            ycsb-e closed, txn-transfer closed. Every reply is
 *            checked against the generator's model of what it wrote.
 *            METRICS is scraped on a drained connection before and
 *            after each measured window, so counter deltas cover
 *            exactly the window's requests.
 *   sim      YCSB-A on lp::sim (runStoreYcsb, LP backend,
 *            bench::paperMachine(1)), twice, timed in host time.
 *   simsetup one timed build plus load of that simulated store.
 *   replay   the same op streams in-process through the wire codec
 *            and a one-shard KvStore<NativeEnv>, timed per call.
 *
 * Each subcommand prints one JSON object on stdout and exits 0 only
 * when every check passed.
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "bench/common.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "obs/time.hh"
#include "obs/trace.hh"
#include "pmem/arena.hh"
#include "server/client.hh"
#include "server/protocol.hh"
#include "stats/json.hh"
#include "store/driver.hh"
#include "store/kv_store.hh"
#include "store/ycsb.hh"

#include "openloop.hh"

using namespace lp;
using server::Request;
using server::Response;
using server::Status;
using stats::JsonValue;
using namespace lpbench;

namespace
{

/** Transfer accounts live far above every YCSB record id. */
constexpr std::uint64_t kAccountBase = 1ull << 40;
constexpr std::uint64_t kInitialBalance = 1000000000;
constexpr int kConns = 4;
/** Open loop: requests in flight per connection before sends wait. */
constexpr int kOpenCap = 128;
/** Warm-up before every window after each phase's first, in seconds. */
constexpr double kRewarmS = 0.1;

std::uint64_t
nowNs()
{
    return obs::nowNs();
}

/**
 * Where nowNs() == 0 lies on the steady clock (CLOCK_MONOTONIC), in
 * us: lets run.py place this process's trace spans on its own clock.
 */
double
clockEpochUs()
{
    const std::uint64_t ns = nowNs();
    const auto mono = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch());
    return double(std::uint64_t(mono.count()) - ns) / 1e3;
}

/**
 * `--name value` options. lpbench/run.py passes every option a
 * subcommand reads, so a missing one is fatal; only --trace-out is
 * optional.
 */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i + 1 < argc; i += 2) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                fatal(std::string("lpbench_gen: bad option ") + argv[i]);
            kv_[argv[i] + 2] = argv[i + 1];
        }
    }

    std::string
    str(const std::string &k) const
    {
        return need(k);
    }

    /** The value of an optional option, or "" when it is absent. */
    std::string
    optional(const std::string &k) const
    {
        const auto it = kv_.find(k);
        return it == kv_.end() ? std::string() : it->second;
    }

    double
    num(const std::string &k) const
    {
        return std::strtod(need(k).c_str(), nullptr);
    }

    std::uint64_t
    u64(const std::string &k) const
    {
        return std::strtoull(need(k).c_str(), nullptr, 10);
    }

  private:
    const std::string &
    need(const std::string &k) const
    {
        const auto it = kv_.find(k);
        if (it == kv_.end())
            fatal("lpbench_gen: missing option --" + k);
        return it->second;
    }

    std::map<std::string, std::string> kv_;
};

/**
 * The generated key space. Record ids map to keys through the same
 * bijective mixer the store benches use; values are deterministic in
 * (seed, id) so a fresh process can rebuild the loaded model.
 */
struct Keys
{
    std::uint64_t seed = 1;
    std::uint64_t records = 0;
    std::uint64_t accounts = 0;

    std::uint64_t record(std::uint64_t id) const { return store::keyOfRecord(id, seed); }
    std::uint64_t account(std::uint64_t i) const { return record(kAccountBase + i); }

    /** Loaded value of record @p id; the top bit stays clear. */
    std::uint64_t
    loadValue(std::uint64_t id) const
    {
        return store::keyOfRecord(id, seed ^ 0x5eed) >> 1;
    }
};

/** Key popularity: zipfian ranks, or uniform when theta is 0. */
class Popularity
{
  public:
    Popularity(std::uint64_t n, double theta) : n_(n)
    {
        if (theta > 0.0)
            zipf_ = std::make_unique<store::ZipfianGen>(n, theta);
    }

    std::uint64_t
    next(Rng &rng)
    {
        return zipf_ ? zipf_->next(rng) : rng.below(n_);
    }

  private:
    std::uint64_t n_;
    std::unique_ptr<store::ZipfianGen> zipf_;
};

/**
 * What the generator knows the store holds. A key's acked value is
 * the last mutation whose recoverable ack arrived; mutations sent but
 * not yet acked are in flight and may already be visible.
 */
class Model
{
  public:
    struct Cell
    {
        std::uint64_t value = 0;
        std::uint64_t sendSeq = 0;  ///< orders acks of one key
        std::uint64_t ackSeq = 0;   ///< when the ack arrived
    };

    void load(std::uint64_t k, std::uint64_t v) { acked_[k] = Cell{v, 0, 0}; }

    void sent(std::uint64_t k, std::uint64_t v) { inflight_.emplace(k, v); }

    void
    ack(std::uint64_t k, std::uint64_t v, std::uint64_t sendSeq)
    {
        dropInflight(k, v);
        Cell &c = acked_[k];
        ++ackSeq_;
        if (sendSeq >= c.sendSeq)
            c = Cell{v, sendSeq, ackSeq_};
    }

    void failed(std::uint64_t k, std::uint64_t v) { dropInflight(k, v); }

    /**
     * A committed Add. Deltas commute, so acks arriving out of commit
     * order still leave the right balance once a window has drained.
     */
    void
    add(std::uint64_t k, std::uint64_t delta)
    {
        Cell &c = acked_[k];
        c.value += delta;
        c.ackSeq = ++ackSeq_;
    }

    /** @p v is the acked value of @p k or an in-flight one. */
    bool
    plausible(std::uint64_t k, std::uint64_t v) const
    {
        const auto it = acked_.find(k);
        if (it != acked_.end() && it->second.value == v)
            return true;
        const auto [b, e] = inflight_.equal_range(k);
        for (auto i = b; i != e; ++i)
            if (i->second == v)
                return true;
        return false;
    }

    const Cell *
    find(std::uint64_t k) const
    {
        const auto it = acked_.find(k);
        return it == acked_.end() ? nullptr : &it->second;
    }

    std::uint64_t ackSeq() const { return ackSeq_; }
    const std::map<std::uint64_t, Cell> &acked() const { return acked_; }

  private:
    void
    dropInflight(std::uint64_t k, std::uint64_t v)
    {
        const auto [b, e] = inflight_.equal_range(k);
        for (auto i = b; i != e; ++i)
            if (i->second == v) {
                inflight_.erase(i);
                return;
            }
    }

    std::map<std::uint64_t, Cell> acked_;
    std::unordered_multimap<std::uint64_t, std::uint64_t> inflight_;
    std::uint64_t ackSeq_ = 0;
};

/**
 * Up to kConns non-blocking TCP connections driven from one thread
 * with poll(): frames are encoded with server::encodeRequest and
 * replies decoded with server::decodeResponse.
 */
class Wire
{
  public:
    ~Wire() { closeAll(); }

    void
    connect(int port, int n)
    {
        for (int i = 0; i < n; ++i) {
            const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0)
                fatal("lpbench_gen: socket failed");
            sockaddr_in a{};
            a.sin_family = AF_INET;
            a.sin_port = htons(std::uint16_t(port));
            a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&a), sizeof(a)) != 0)
                fatal("lpbench_gen: connect to port " + std::to_string(port) +
                      " failed: " + std::strerror(errno));
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
            conns_.push_back(Conn{});
            conns_.back().fd = fd;
        }
    }

    void
    closeAll()
    {
        for (Conn &c : conns_)
            if (c.fd >= 0)
                ::close(c.fd);
        conns_.clear();
    }

    int size() const { return int(conns_.size()); }

    /** Queue one frame; pump() writes every queued frame at once. */
    void
    send(int c, const Request &r)
    {
        server::encodeRequest(r, conns_[std::size_t(c)].out);
    }

    /**
     * Write queued frames, wait up to @p timeoutNs for I/O and hand
     * every decoded reply to @p onReply(conn, response). One write
     * per connection per call keeps the generator's syscalls per
     * request low, so it is not the bottleneck it measures.
     */
    template <typename F>
    void
    pump(std::int64_t timeoutNs, F &&onReply)
    {
        for (Conn &c : conns_)
            flush(c);
        std::vector<pollfd> pf(conns_.size());
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            pf[i].fd = conns_[i].fd;
            pf[i].events = short(
                POLLIN | (conns_[i].out.size() > conns_[i].outOff ? POLLOUT : 0));
        }
        timespec ts{};
        if (timeoutNs < 0)
            timeoutNs = 0;
        ts.tv_sec = timeoutNs / 1000000000;
        ts.tv_nsec = timeoutNs % 1000000000;
        const int n = ::ppoll(pf.data(), pf.size(), &ts, nullptr);
        if (n < 0 && errno != EINTR)
            fatal("lpbench_gen: poll failed");
        for (std::size_t i = 0; n > 0 && i < conns_.size(); ++i) {
            if (pf[i].revents & POLLOUT)
                flush(conns_[i]);
            if (pf[i].revents & (POLLIN | POLLHUP | POLLERR))
                readAll(int(i), onReply);
        }
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::vector<std::uint8_t> out;
        std::size_t outOff = 0;
        std::vector<std::uint8_t> in;
        std::size_t inOff = 0;
    };

    static void
    flush(Conn &c)
    {
        while (c.outOff < c.out.size()) {
            const ssize_t w = ::send(c.fd, c.out.data() + c.outOff,
                                     c.out.size() - c.outOff, MSG_NOSIGNAL);
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            if (w <= 0)
                fatal("lpbench_gen: send failed (server gone?)");
            c.outOff += std::size_t(w);
        }
        c.out.clear();
        c.outOff = 0;
    }

    template <typename F>
    void
    readAll(int ci, F &onReply)
    {
        Conn &c = conns_[std::size_t(ci)];
        std::uint8_t buf[1 << 16];
        // A short read drained the socket; poll reports any later bytes.
        for (;;) {
            const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
            if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (r <= 0)
                fatal("lpbench_gen: connection closed by server");
            c.in.insert(c.in.end(), buf, buf + r);
            if (std::size_t(r) < sizeof(buf))
                break;
        }
        for (;;) {
            Response resp;
            std::size_t used = 0;
            const server::Decode d = server::decodeResponse(
                c.in.data() + c.inOff, c.in.size() - c.inOff, used, resp);
            if (d == server::Decode::NeedMore)
                break;
            if (d == server::Decode::Malformed)
                fatal("lpbench_gen: malformed reply");
            c.inOff += used;
            onReply(ci, resp);
        }
        if (c.inOff == c.in.size()) {
            c.in.clear();
            c.inOff = 0;
        } else if (c.inOff > (1u << 20)) {
            c.in.erase(c.in.begin(), c.in.begin() + std::ptrdiff_t(c.inOff));
            c.inOff = 0;
        }
    }

    std::vector<Conn> conns_;
};

enum class Kind
{
    Get,
    Put,
    Insert,
    Scan,
    Txn,
};

constexpr int kKinds = 5;

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Get: return "get";
      case Kind::Put: return "put";
      case Kind::Insert: return "insert";
      case Kind::Scan: return "scan";
      case Kind::Txn: return "txn";
    }
    return "?";
}

/** One generated operation. */
struct Op
{
    Kind kind = Kind::Get;
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::uint32_t limit = 0;             ///< Scan
    std::vector<server::TxnOp> txn;      ///< Txn
    bool crossShard = false;             ///< Txn
};

/** What one measured window observed, client side. */
struct Window
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t completed = 0;
    std::vector<std::uint64_t> latNs[kKinds];  ///< by Kind
    std::vector<std::uint64_t> lateNs;
    std::vector<std::uint64_t> rttNs;
    std::uint64_t gets = 0, puts = 0, inserts = 0, scans = 0;
    std::uint64_t scanRecords = 0;
    std::uint64_t txnCommits = 0, txnAborts = 0, retries = 0;
    std::uint64_t backoffUs = 0, crossShard = 0;
    std::uint64_t failed = 0;
    std::string metricsBefore, metricsAfter;
};

/**
 * The phase engine: issues generated ops on the wire, checks every
 * reply against the model, schedules retries with RetryPolicy
 * backoff, and records per-request anchors into the current window
 * (or only counts them during warm-up).
 */
class Engine
{
  public:
    Engine(Wire &wire, const Keys &keys, int shards, obs::TraceRing *ring)
        : wire_(wire), ring_(ring)
    {
        policy_.maxAttempts = 64;
        for (std::uint64_t id = 0; id < keys.records; ++id)
            model_.load(keys.record(id), keys.loadValue(id));
        for (std::uint64_t i = 0; i < keys.accounts; ++i)
            model_.load(keys.account(i), kInitialBalance);
        // One account key per shard for scrape()'s barrier.
        for (int s = 0; s < shards; ++s)
            for (std::uint64_t i = 0; i < keys.accounts; ++i)
                if (store::shardOfKey(keys.account(i), shards) == s) {
                    barrierKeys_.push_back(keys.account(i));
                    break;
                }
    }

    Model &model() { return model_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

    /** Called with the connection whenever one of its ops finishes. */
    std::function<void(int)> onDone;

    void
    issue(int conn, Op op, std::uint64_t intendedNs)
    {
        ++attempted_;
        ++inflight_;
        Pending p;
        p.conn = conn;
        p.a.intendedNs = intendedNs;
        p.win = win_;
        p.op = std::move(op);
        send(std::move(p));
    }

    bool idle() const { return inflight_ == 0; }

    /** Ops issued from now on record into @p w (null = warm-up). */
    void begin(Window *w) { win_ = w; }

    /** Wait for I/O (or the next due retry) up to @p untilNs. */
    void
    step(std::uint64_t untilNs)
    {
        const std::uint64_t now = nowNs();
        while (!retries_.empty() && retries_.top().dueNs <= now) {
            Pending p = std::move(const_cast<Retry &>(retries_.top()).p);
            retries_.pop();
            send(std::move(p));
        }
        std::uint64_t wake = untilNs;
        if (!retries_.empty() && retries_.top().dueNs < wake)
            wake = retries_.top().dueNs;
        wire_.pump(std::int64_t(wake) - std::int64_t(nowNs()),
                   [this](int c, const Response &r) { reply(c, r); });
    }

    /** Pump until every issued op (retries included) has finished. */
    void
    drain()
    {
        const std::uint64_t limit = nowNs() + 30'000'000'000ull;
        while (!idle()) {
            if (nowNs() > limit)
                fatal("lpbench_gen: replies stopped arriving");
            step(nowNs() + 1'000'000);
        }
    }

    /**
     * METRICS on a drained connection 0. A cross-shard TXN is acked
     * at its commit decision and applied on its shards afterwards, so
     * a GET to every shard goes first: each worker runs its queue in
     * order, so the GET replies mean the applies have run. The
     * barrier GETs are credited to @p closing, the window this scrape
     * ends (null for a scrape that opens one).
     */
    std::string
    scrape(Window *closing)
    {
        drain();
        for (const std::uint64_t key : barrierKeys_) {
            Op op;
            op.key = key;
            issue(0, std::move(op), nowNs());
        }
        drain();
        if (closing)
            closing->gets += barrierKeys_.size();
        return metricsOnce();
    }

    /** Count a failed operation against @p w (null = warm-up). */
    void
    fail(const std::string &why, Window *w = nullptr)
    {
        ++failed_;
        if (w)
            ++w->failed;
        if (failures_.size() < 10)
            failures_.push_back(why);
    }

  private:
    struct Pending
    {
        int conn = 0;
        Op op;
        Anchors a;
        std::uint64_t firstSentNs = 0;
        std::uint64_t sendSeq = 0;
        std::uint64_t ackSeqAtSend = 0;
        std::uint64_t ackedAtSend = 0;  ///< Get: acked value at send
        int attempt = 0;
        Window *win = nullptr;
    };

    struct Retry
    {
        std::uint64_t dueNs;
        Pending p;
        bool operator>(const Retry &o) const { return dueNs > o.dueNs; }
    };

    void
    send(Pending p)
    {
        Request r;
        r.id = ++lastId_;
        switch (p.op.kind) {
          case Kind::Get:
            r.op = server::Op::Get;
            r.key = p.op.key;
            if (const Model::Cell *c = model_.find(p.op.key))
                p.ackedAtSend = c->value;
            break;
          case Kind::Put:
          case Kind::Insert:
            r.op = server::Op::Put;
            r.key = p.op.key;
            r.value = p.op.value;
            if (p.attempt == 0)
                model_.sent(p.op.key, p.op.value);
            break;
          case Kind::Scan:
            r.op = server::Op::Scan;
            r.key = p.op.key;
            r.limit = p.op.limit;
            break;
          case Kind::Txn:
            r.op = server::Op::Txn;
            r.txn = p.op.txn;
            break;
        }
        p.a.sentNs = nowNs();
        if (p.attempt == 0) {
            p.firstSentNs = p.a.sentNs;
            p.sendSeq = r.id;
            p.ackSeqAtSend = model_.ackSeq();
        }
        const int conn = p.conn;
        pending_.emplace(r.id, std::move(p));
        wire_.send(conn, r);
    }

    std::string
    metricsOnce()
    {
        Request r;
        r.op = server::Op::Metrics;
        r.id = ++lastId_;
        metricsId_ = r.id;
        metricsBody_.reset();
        wire_.send(0, r);
        const std::uint64_t limit = nowNs() + 10'000'000'000ull;
        while (!metricsBody_) {
            if (nowNs() > limit)
                fatal("lpbench_gen: METRICS reply missing");
            wire_.pump(1'000'000, [this](int c, const Response &x) { reply(c, x); });
        }
        return *metricsBody_;
    }

    void
    reply(int conn, const Response &r)
    {
        if (r.id == metricsId_) {
            if (r.status != Status::Ok)
                fatal("lpbench_gen: METRICS refused");
            metricsBody_ = r.body;
            return;
        }
        auto it = pending_.find(r.id);
        if (it == pending_.end() || it->second.conn != conn)
            fatal("lpbench_gen: reply to an unknown request id");
        Pending p = std::move(it->second);
        pending_.erase(it);
        p.a.replyNs = nowNs();
        Window *w = p.win;

        if (r.status == Status::Retry ||
            (r.status == Status::Aborted && p.op.kind == Kind::Txn)) {
            if (w) {
                ++(r.status == Status::Retry ? w->retries : w->txnAborts);
            }
            if (++p.attempt >= policy_.maxAttempts) {
                finish(p, false, "abandoned after retries");
                return;
            }
            const std::uint64_t us =
                server::retryDelayUs(policy_, p.attempt - 1, jitter_);
            if (w)
                w->backoffUs += us;
            retries_.push(Retry{p.a.replyNs + us * 1000, std::move(p)});
            return;
        }
        bool ok = false;
        std::string why;
        switch (p.op.kind) {
          case Kind::Get:
            ok = r.status == Status::Ok && r.hasValue &&
                 (r.value == p.ackedAtSend || model_.plausible(p.op.key, r.value));
            why = "GET returned a value never written";
            break;
          case Kind::Put:
          case Kind::Insert:
            ok = r.status == Status::Ok;
            if (ok)
                model_.ack(p.op.key, p.op.value, p.sendSeq);
            else
                model_.failed(p.op.key, p.op.value);
            why = "PUT refused: " + server::statusName(r.status);
            break;
          case Kind::Scan:
            ok = checkScan(p, r, why);
            break;
          case Kind::Txn:
            ok = r.status == Status::Ok;
            if (ok)
                for (const server::TxnOp &t : p.op.txn)
                    model_.add(t.key, t.value);
            why = "TXN failed: " + server::statusName(r.status);
            break;
        }
        finish(p, ok, why);
    }

    /**
     * Ascending, in range, plausible values, nothing acked missing:
     * one walk of the model from the start key in step with the
     * records. A model key the reply skips is allowed only if its ack
     * arrived after the SCAN was sent.
     */
    bool
    checkScan(const Pending &p, const Response &r, std::string &why)
    {
        std::vector<server::ScanRecord> recs;
        if (r.status != Status::Ok || !server::decodeScanBody(r.body, recs)) {
            why = "SCAN refused or malformed";
            return false;
        }
        if (p.win)
            p.win->scanRecords += recs.size();
        if (recs.size() > p.op.limit) {
            why = "SCAN returned more than its limit";
            return false;
        }
        const auto &acked = model_.acked();
        auto it = acked.lower_bound(p.op.key);
        const auto skip = [&](std::uint64_t below) {
            for (; it != acked.end() && it->first < below; ++it)
                if (it->second.ackSeq <= p.ackSeqAtSend)
                    return false;
            return true;
        };
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const auto &[k, v] = recs[i];
            if (k < p.op.key || (i > 0 && k <= recs[i - 1].key)) {
                why = "SCAN out of order";
                return false;
            }
            if (!skip(k)) {
                why = "SCAN skipped an acked key";
                return false;
            }
            const bool known = it != acked.end() && it->first == k;
            if (!(known && it->second.value == v) && !model_.plausible(k, v)) {
                why = "SCAN value never written";
                return false;
            }
            if (known)
                ++it;
        }
        if (recs.size() < p.op.limit && !skip(~0ull)) {
            why = "SCAN ended before an acked key";
            return false;
        }
        return true;
    }

    void
    finish(Pending &p, bool ok, const std::string &why)
    {
        --inflight_;
        Window *w = p.win;
        const Kind k = p.op.kind;
        if (!ok) {
            fail(std::string(kindName(k)) + ": " + why, w);
        } else if (w) {
            ++w->completed;
            // Lateness counts to the first send; the round trip is
            // the last attempt's.
            Anchors first = p.a;
            first.sentNs = p.firstSentNs;
            w->latNs[int(k)].push_back(first.latencyNs());
            w->lateNs.push_back(first.lateNs());
            w->rttNs.push_back(p.a.rttNs());
            switch (k) {
              case Kind::Get: ++w->gets; break;
              case Kind::Put: ++w->puts; break;
              case Kind::Insert: ++w->inserts; break;
              case Kind::Scan: ++w->scans; break;
              case Kind::Txn:
                ++w->txnCommits;
                w->crossShard += p.op.crossShard ? 1 : 0;
                break;
            }
        }
        obs::traceSpanFrom(ring_, kindName(k), p.firstSentNs, p.sendSeq);
        if (onDone)
            onDone(p.conn);
    }

    Wire &wire_;
    obs::TraceRing *ring_;
    std::vector<std::uint64_t> barrierKeys_;
    Model model_;
    server::RetryPolicy policy_;
    std::uint64_t jitter_ = 0x2545f4914f6cdd1dull;
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>> retries_;
    std::uint64_t lastId_ = 0;
    std::uint64_t metricsId_ = 0;
    std::optional<std::string> metricsBody_;
    std::uint64_t inflight_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    Window *win_ = nullptr;
};

/** The generated op mixes. Every draw comes from the one seeded Rng. */
class Mixes
{
  public:
    Mixes(const Keys &keys, double theta, double txnTheta, int shards,
          std::uint64_t insertBudget)
        : keys_(keys), shards_(shards), rng_(keys.seed * 0x2545f4914f6cdd1dull + 3),
          perConn_(keys.records / kConns, theta), scanStart_(keys.records, theta),
          account_(keys.accounts, txnTheta), insertBudget_(insertBudget)
    {
    }

    /**
     * YCSB-A on connection @p conn: 50/50 GET/PUT. Connection c owns
     * record ids congruent to c mod kConns, so one connection is the
     * only writer of its keys and a GET's expected value is exact.
     */
    Op
    ycsbA(int conn)
    {
        const std::uint64_t id = perConn_.next(rng_) * kConns + std::uint64_t(conn);
        Op op;
        op.key = keys_.record(id);
        if (rng_.chance(0.5)) {
            op.kind = Kind::Get;
        } else {
            op.kind = Kind::Put;
            op.value = nextValue();
        }
        return op;
    }

    /** YCSB-E: 95% SCAN of 1-100 records, 5% insert of a fresh key. */
    Op
    ycsbE(int)
    {
        Op op;
        if (rng_.chance(0.95)) {
            op.kind = Kind::Scan;
            op.key = keys_.record(scanStart_.next(rng_));
            op.limit = std::uint32_t(1 + rng_.below(100));
            return op;
        }
        op.kind = Kind::Insert;
        op.key = keys_.record(keys_.records + inserts_++);
        op.value = nextValue();
        return op;
    }

    /** A 2-key Add transfer between distinct accounts. */
    Op
    transfer(int)
    {
        const std::uint64_t n = keys_.accounts;
        const std::uint64_t a = (account_.next(rng_) + accountShift_) % n;
        std::uint64_t b = (account_.next(rng_) + accountShift_) % n;
        while (b == a)
            b = rng_.below(n);
        const std::uint64_t amount = 1 + rng_.below(1000);
        Op op;
        op.kind = Kind::Txn;
        const std::uint64_t from = keys_.account(a), to = keys_.account(b);
        op.txn.push_back({server::TxnOp::Kind::Add, from, ~amount + 1});
        op.txn.push_back({server::TxnOp::Kind::Add, to, amount});
        op.crossShard = store::shardOfKey(from, shards_) != store::shardOfKey(to, shards_);
        return op;
    }

    /**
     * Move the popular accounts to other keys. Which shard the hottest
     * accounts share decides how many transfers take the single-shard
     * path; a fresh placement per round keeps one seed's layout from
     * deciding the whole run.
     */
    void reshuffleAccounts() { accountShift_ = rng_.below(keys_.accounts); }

    std::uint64_t inserts() const { return inserts_; }
    bool insertBudgetLeft() const { return inserts_ < insertBudget_; }

  private:
    std::uint64_t nextValue() { return (1ull << 63) | ++values_; }

    Keys keys_;
    int shards_;
    Rng rng_;
    Popularity perConn_, scanStart_, account_;
    std::uint64_t insertBudget_;
    std::uint64_t accountShift_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t values_ = 0;
};

/** Closed loop: keep @p window ops in flight on every connection. */
void
closedLoop(Engine &eng, Wire &wire, int window, double seconds,
           const std::function<Op(int)> &next)
{
    const std::uint64_t end = nowNs() + std::uint64_t(seconds * 1e9);
    bool open = true;
    eng.onDone = [&](int c) {
        if (open && nowNs() < end) {
            const std::uint64_t t = nowNs();
            eng.issue(c, next(c), t);
        }
    };
    for (int c = 0; c < wire.size(); ++c)
        for (int i = 0; i < window; ++i)
            eng.issue(c, next(c), nowNs());
    while (nowNs() < end)
        eng.step(end);
    open = false;
    eng.drain();
    eng.onDone = nullptr;
}

/**
 * Open loop: Poisson arrivals at @p rate spread round-robin over the
 * connections. A connection with @p cap requests outstanding queues
 * further arrivals locally; they keep their intended send time.
 */
void
openLoop(Engine &eng, Wire &wire, double rate, double seconds, std::uint64_t seed,
         int cap, const std::function<Op(int)> &next)
{
    const std::uint64_t t0 = nowNs();
    const std::uint64_t end = t0 + std::uint64_t(seconds * 1e9);
    PoissonSchedule sched(rate, seed);
    struct Due
    {
        std::uint64_t intendedNs;
        Op op;
    };
    std::vector<std::deque<Due>> backlog(std::size_t(wire.size()));
    std::vector<int> outstanding(std::size_t(wire.size()), 0);
    eng.onDone = [&](int c) {
        --outstanding[std::size_t(c)];
        auto &q = backlog[std::size_t(c)];
        if (!q.empty()) {
            ++outstanding[std::size_t(c)];
            eng.issue(c, std::move(q.front().op), q.front().intendedNs);
            q.pop_front();
        }
    };
    std::uint64_t due = t0 + sched.next();
    int rr = 0;
    while (due < end) {
        const std::uint64_t now = nowNs();
        if (now < due) {
            eng.step(due);
            continue;
        }
        const int c = rr++ % wire.size();
        Op op = next(c);
        if (outstanding[std::size_t(c)] < cap) {
            ++outstanding[std::size_t(c)];
            eng.issue(c, std::move(op), due);
        } else {
            backlog[std::size_t(c)].push_back(Due{due, std::move(op)});
        }
        due = t0 + sched.next();
    }
    while (true) {
        bool empty = true;
        for (const auto &q : backlog)
            empty = empty && q.empty();
        if (empty && eng.idle())
            break;
        eng.step(nowNs() + 1'000'000);
    }
    eng.onDone = nullptr;
}

JsonValue::Object
windowJson(Window &w)
{
    JsonValue::Object o;
    o["seconds"] = w.seconds;
    o["completed"] = w.completed;
    o["failed"] = w.failed;
    o["gets"] = w.gets;
    o["puts"] = w.puts;
    o["inserts"] = w.inserts;
    o["scans"] = w.scans;
    o["scan_records"] = w.scanRecords;
    o["txn_commits"] = w.txnCommits;
    o["txn_aborts"] = w.txnAborts;
    o["retries"] = w.retries;
    o["backoff_us"] = w.backoffUs;
    o["cross_shard"] = w.crossShard;
    JsonValue::Object lat;
    for (int k = 0; k < kKinds; ++k) {
        std::vector<std::uint64_t> &v = w.latNs[k];
        if (v.empty())
            continue;
        JsonValue::Object s;
        double sum = 0.0;
        for (const std::uint64_t x : v)
            sum += double(x);
        s["count"] = std::uint64_t(v.size());
        s["mean_ns"] = v.empty() ? 0.0 : sum / double(v.size());
        s["p50_ns"] = percentile(v, 50);
        s["p99_ns"] = percentile(v, 99);
        lat[kindName(Kind(k))] = std::move(s);
    }
    o["latency"] = std::move(lat);
    double rttSum = 0.0;
    for (const std::uint64_t x : w.rttNs)
        rttSum += double(x);
    o["rtt_mean_ns"] = w.rttNs.empty() ? 0.0 : rttSum / double(w.rttNs.size());
    o["rtt_p50_ns"] = percentile(w.rttNs, 50);
    o["late_p99_ns"] = percentile(w.lateNs, 99);
    return o;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

Keys
keysFrom(const Args &a)
{
    Keys k;
    k.seed = a.u64("seed");
    k.records = a.u64("records");
    k.accounts = a.u64("accounts");
    return k;
}

/** BATCH-load every record and account, then SHUTDOWN. */
int
cmdLoad(const Args &a)
{
    const Keys keys = keysFrom(a);
    server::Client cli;
    if (!cli.connectTo("127.0.0.1", int(a.u64("port")), 10000))
        fatal("lpbench_gen: cannot connect for load");
    std::vector<std::pair<std::uint64_t, std::uint64_t>> all;
    for (std::uint64_t id = 0; id < keys.records; ++id)
        all.emplace_back(keys.record(id), keys.loadValue(id));
    for (std::uint64_t i = 0; i < keys.accounts; ++i)
        all.emplace_back(keys.account(i), kInitialBalance);
    const std::uint64_t t0 = nowNs();
    std::size_t sent = 0, acked = 0, next = 0;
    const std::size_t perBatch = server::maxBatchOps;
    while (acked < (all.size() + perBatch - 1) / perBatch) {
        while (next < all.size() && sent - acked < 8) {
            Request r;
            r.op = server::Op::Batch;
            r.id = cli.nextId();
            for (std::size_t i = next; i < std::min(all.size(), next + perBatch); ++i)
                r.batch.push_back({true, all[i].first, all[i].second});
            next += r.batch.size();
            if (!cli.sendRequest(r))
                fatal("lpbench_gen: load send failed");
            ++sent;
        }
        const auto resp = cli.recvResponse(30000);
        if (!resp || resp->status != Status::Ok)
            fatal("lpbench_gen: BATCH load refused");
        ++acked;
    }
    const double loadS = double(nowNs() - t0) / 1e9;
    const auto bye = cli.shutdownServer(30000);
    if (!bye || bye->status != Status::Ok)
        fatal("lpbench_gen: SHUTDOWN refused");
    JsonValue::Object o;
    o["load_s"] = loadS;
    o["records"] = std::uint64_t(all.size());
    std::printf("%s\n", JsonValue(std::move(o)).render().c_str());
    return 0;
}

/** The simulated store. */
store::StoreConfig
simStoreConfig(const Args &a)
{
    store::StoreConfig s;
    s.capacity = a.u64("capacity");
    s.shards = 1;
    s.batchOps = 32;
    s.foldBatches = 64;
    return s;
}

/** The simulated YCSB-A run. */
store::YcsbParams
simParams(const Args &a)
{
    store::YcsbParams p;
    p.records = a.u64("records");
    p.ops = a.u64("ops");
    p.mix = store::YcsbMix::A;
    p.theta = a.num("theta");
    p.zipfian = p.theta > 0.0;
    if (!p.zipfian)
        p.theta = 0.99;  // unused by the uniform draw; must stay valid
    p.seed = a.u64("seed");
    return p;
}

/** Full paged SCAN: the recovered image must equal the loaded model. */
void
verifyImage(Engine &eng)
{
    const auto &acked = eng.model().acked();
    auto want = acked.begin();
    std::uint64_t start = 0;
    bool done = false;
    eng.onDone = nullptr;
    while (!done) {
        // One page at a time: the engine's SCAN check covers order,
        // values and gaps; the count here covers the whole image.
        Op op;
        op.kind = Kind::Scan;
        op.key = start;
        op.limit = std::uint32_t(server::maxScanRecords);
        Window page;
        eng.begin(&page);
        eng.issue(0, op, nowNs());
        eng.drain();
        eng.begin(nullptr);
        if (page.failed)
            return;
        const std::uint64_t got = page.scanRecords;
        std::uint64_t last = start;
        for (std::uint64_t i = 0; i < got && want != acked.end(); ++i, ++want)
            last = want->first;
        if (got < server::maxScanRecords || want == acked.end())
            done = true;
        start = last + 1;
    }
    if (want != acked.end())
        eng.fail("recovered image is missing loaded records");
}

int
cmdPhases(const Args &a)
{
    const Keys keys = keysFrom(a);
    const int shards = int(a.u64("shards"));
    const int window = int(a.u64("window"));
    const double warm = a.num("warm-s");
    const std::string outDir = a.str("out");
    const double theta = a.num("theta");
    const double txnTheta = a.num("txn-theta");
    const std::uint64_t seed = keys.seed;

    obs::TraceCollector tc;
    obs::TraceRing *ring = nullptr;
    const std::string traceOut = a.optional("trace-out");
    if (!traceOut.empty())
        ring = tc.ring("generator", 0, 1 << 17);

    Wire wire;
    wire.connect(int(a.u64("port")), kConns);
    Engine eng(wire, keys, shards, ring);
    Mixes mix(keys, theta, txnTheta, shards, a.u64("insert-budget"));

    verifyImage(eng);

    std::vector<std::unique_ptr<Window>> wins;
    auto measured = [&](const std::string &name, const std::function<void(double)> &run,
                        double seconds) {
        // Warm-up, not recorded: long before a phase's first window,
        // short before later ones (connections and caches are warm).
        run(wins.size() < 4 ? warm : kRewarmS);
        auto w = std::make_unique<Window>();
        w->name = name;
        w->metricsBefore = eng.scrape(nullptr);
        eng.begin(w.get());
        const std::uint64_t t0 = nowNs();
        run(seconds);
        eng.drain();
        w->seconds = double(nowNs() - t0) / 1e9;
        eng.begin(nullptr);
        w->metricsAfter = eng.scrape(w.get());
        wins.push_back(std::move(w));
    };

    const auto ycsbA = [&](int c) { return mix.ycsbA(c); };
    const auto ycsbE = [&](int c) {
        Op op = mix.ycsbE(c);
        while (op.kind == Kind::Insert && !mix.insertBudgetLeft()) {
            eng.fail("insert budget exhausted (capacity headroom too small)");
            op = mix.ycsbE(c);
        }
        return op;
    };
    const auto transfer = [&](int c) { return mix.transfer(c); };

    // Rounds interleave the four windows, so a slow stretch of the
    // machine lands in one round of every phase rather than in all of
    // one phase; run.py reports medians over rounds.
    std::uint64_t openSeed = seed;
    const int rounds = int(a.u64("rounds"));
    for (int r = 0; r < rounds; ++r) {
        measured("ycsb-a-closed",
                 [&](double s) { closedLoop(eng, wire, window, s, ycsbA); },
                 a.num("closed-s"));
        measured("ycsb-a-open",
                 [&](double s) {
                     openLoop(eng, wire, a.num("rate"), s, ++openSeed,
                              kOpenCap, ycsbA);
                 },
                 a.num("open-s"));
        measured("ycsb-e",
                 [&](double s) { closedLoop(eng, wire, window, s, ycsbE); },
                 a.num("scan-s"));
        mix.reshuffleAccounts();
        measured("txn-transfer",
                 [&](double s) { closedLoop(eng, wire, 1, s, transfer); },
                 a.num("txn-s"));
    }

    wire.closeAll();

    // Transfers move money, never create it: the balance sum holds.
    // Audit it, then check the drain, over a fresh lone connection.
    std::uint64_t sum = 0;
    server::Client cli;
    if (!cli.connectTo("127.0.0.1", int(a.u64("port")), 10000))
        fatal("lpbench_gen: cannot reconnect for the audit");
    for (std::uint64_t i = 0; i < keys.accounts; ++i) {
        const auto r = cli.get(keys.account(i), 10000);
        if (!r || r->status != Status::Ok || !r->hasValue)
            eng.fail("account balance unreadable");
        else
            sum += r->value;
    }
    if (sum != kInitialBalance * keys.accounts)
        eng.fail("transfer balance sum changed");
    std::string finalMetrics;
    const std::uint64_t waitEnd = nowNs() + 5'000'000'000ull;
    for (;;) {
        const auto m = cli.metrics(10000);
        if (!m || m->status != Status::Ok)
            fatal("lpbench_gen: final METRICS failed");
        finalMetrics = m->body;
        // Only this audit connection may still be open.
        if (finalMetrics.find("\nlp_conn_active 1\n") != std::string::npos ||
            nowNs() > waitEnd)
            break;
        usleep(10000);
    }
    const auto bye = cli.shutdownServer(30000);
    if (!bye || bye->status != Status::Ok)
        fatal("lpbench_gen: SHUTDOWN refused");

    JsonValue::Object o;
    JsonValue::Array windows;
    for (std::size_t i = 0; i < wins.size(); ++i) {
        Window &w = *wins[i];
        const std::string base = outDir + "/window-" + std::to_string(i);
        if (!writeFile(base + ".before.prom", w.metricsBefore) ||
            !writeFile(base + ".after.prom", w.metricsAfter))
            fatal("lpbench_gen: cannot write METRICS snapshots");
        JsonValue::Object wj = windowJson(w);
        wj["name"] = w.name;
        wj["metrics"] = base;
        windows.push_back(std::move(wj));
    }
    if (!writeFile(outDir + "/final.prom", finalMetrics))
        fatal("lpbench_gen: cannot write METRICS snapshot");
    if (ring && !tc.writeChromeTrace(traceOut))
        fatal("lpbench_gen: cannot write " + traceOut);
    o["windows"] = std::move(windows);
    o["attempted"] = eng.attempted() + keys.accounts;
    o["failed"] = eng.failed();
    JsonValue::Array why;
    for (const auto &f : eng.failures())
        why.push_back(f);
    o["failures"] = std::move(why);
    o["inserts"] = mix.inserts();
    o["clock_epoch_us"] = clockEpochUs();
    std::printf("%s\n", JsonValue(std::move(o)).render().c_str());
    return eng.failed() == 0 ? 0 : 1;
}

/** One timed set-up of the simulated store: build plus load. */
int
cmdSimSetup(const Args &a)
{
    const store::StoreConfig scfg = simStoreConfig(a);
    const std::uint64_t t0 = nowNs();
    kernels::SimContext ctx(bench::paperMachine(1), store::storeArenaBytes(scfg));
    store::KvStore<kernels::SimEnv> kv(ctx.arena, scfg, store::Backend::Lp);
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);
    ctx.arena.persistAll();
    store::ycsbLoad(env, kv, simParams(a), nullptr);
    JsonValue::Object o;
    o["setup_s"] = double(nowNs() - t0) / 1e9;
    std::printf("%s\n", JsonValue(std::move(o)).render().c_str());
    return 0;
}

/**
 * YCSB-A on lp::sim through runStoreYcsb, run twice: it must verify
 * and repeat exactly. Each call is timed in host time for the host
 * speed.
 */
int
cmdSim(const Args &a)
{
    const store::StoreConfig scfg = simStoreConfig(a);
    const store::YcsbParams p = simParams(a);
    const sim::MachineConfig mcfg = bench::paperMachine(1);

    store::StoreRunResult first;
    bool verified = true, repeats = true;
    JsonValue::Array runS;
    for (int r = 0; r < 2; ++r) {
        const std::uint64_t t0 = nowNs();
        const store::StoreRunResult res =
            store::runStoreYcsb(store::Backend::Lp, scfg, p, mcfg);
        runS.push_back(double(nowNs() - t0) / 1e9);
        verified = verified && res.verified;
        if (r == 0)
            first = res;
        else
            repeats = res.execCycles == first.execCycles &&
                      res.nvmmWrites == first.nvmmWrites;
    }

    JsonValue::Object o;
    o["verified"] = verified;
    o["repeats"] = repeats;
    o["ops"] = std::uint64_t(p.ops);
    o["mutations"] = first.mutations;
    o["exec_cycles"] = first.execCycles;
    o["clock_ghz"] = mcfg.clockGhz;
    o["nvmm_writes"] = first.nvmmWrites;
    o["writes_per_mutation"] = first.writesPerMutation;
    o["stats"] = stats::toJson(first.stats);
    o["run_s"] = std::move(runS);
    std::printf("%s\n", JsonValue(std::move(o)).render().c_str());
    return verified && repeats ? 0 : 1;
}

/**
 * Replay the served op streams in-process: every op goes through the
 * wire codec (encodeRequest, decodeRequest) and then straight into a
 * one-shard KvStore<NativeEnv>, the unit each server worker owns.
 * Each store call is timed and traced.
 */
int
cmdReplay(const Args &a)
{
    const Keys keys = keysFrom(a);
    const double theta = a.num("theta");
    const std::uint64_t ops = a.u64("ops");
    store::StoreConfig scfg;
    scfg.capacity = a.u64("capacity");
    scfg.shards = 1;
    pmem::PersistentArena arena(store::storeArenaBytes(scfg));
    store::KvStore<kernels::NativeEnv> kv(arena, scfg, store::Backend::Lp);
    arena.persistAll();
    kernels::NativeEnv env;

    obs::TraceCollector tc;
    obs::TraceRing *ring = tc.ring("replay", 0, 1 << 16);
    std::vector<std::uint64_t> putNs, getNs, commitNs;
    std::uint64_t scanNs = 0, scanRecs = 0;
    std::uint64_t checkpointNs = 0;

    const auto timed = [&](const char *name, std::vector<std::uint64_t> *into,
                           const std::function<void()> &call) {
        const std::uint64_t t0 = nowNs();
        call();
        const std::uint64_t dt = nowNs() - t0;
        obs::traceSpanFrom(ring, name, t0);
        if (into)
            into->push_back(dt);
        return dt;
    };

    std::uint64_t failed = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> golden;
    for (std::uint64_t id = 0; id < keys.records; ++id) {
        kv.put(env, keys.record(id), keys.loadValue(id));
        golden[keys.record(id)] = keys.loadValue(id);
    }
    checkpointNs = timed("checkpoint", nullptr, [&] { kv.checkpoint(env); });

    Mixes mix(keys, theta, 0.9, 1, ~0ull);
    std::vector<std::uint8_t> wire;
    std::uint64_t sinceCommit = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        // Four of five ops from YCSB-A, one from YCSB-E.
        const Op op = i % 5 == 4 ? mix.ycsbE(0) : mix.ycsbA(int(i % kConns));
        Request r;
        r.id = i + 1;
        r.key = op.key;
        r.value = op.value;
        r.limit = op.limit;
        r.op = op.kind == Kind::Get    ? server::Op::Get
               : op.kind == Kind::Scan ? server::Op::Scan
                                       : server::Op::Put;
        wire.clear();
        server::encodeRequest(r, wire);
        Request d;
        std::size_t used = 0;
        if (server::decodeRequest(wire.data(), wire.size(), used, d) !=
            server::Decode::Ok)
            fatal("lpbench_gen: replay codec round trip failed");
        switch (d.op) {
          case server::Op::Get:
            timed("get", &getNs, [&] {
                const auto v = kv.get(env, d.key);
                if (!v || *v != golden[d.key])
                    ++failed;
            });
            break;
          case server::Op::Put:
            timed("put", &putNs, [&] { kv.put(env, d.key, d.value); });
            golden[d.key] = d.value;
            ++sinceCommit;
            break;
          default: {
            const std::uint64_t t0 = nowNs();
            const auto recs = kv.scan(env, d.key, d.limit);
            scanNs += nowNs() - t0;
            obs::traceSpanFrom(ring, "scan", t0, recs.size());
            scanRecs += recs.size();
            for (const auto &[k, v] : recs)
                if (golden[k] != v)
                    ++failed;
            break;
          }
        }
        // A server worker commits when its queue drains; replay
        // drains every 256 ops.
        if (i % 256 == 255 && sinceCommit > 0) {
            timed("commit", &commitNs, [&] { kv.commitBatches(env); });
            sinceCommit = 0;
        }
    }
    timed("checkpoint", nullptr, [&] { kv.checkpoint(env); });
    const auto snap = kv.snapshot();
    for (const auto &[k, v] : golden) {
        const auto it = snap.find(k);
        if (it == snap.end() || it->second != v)
            ++failed;
    }
    const std::string traceOut = a.optional("trace-out");
    if (!traceOut.empty() && !tc.writeChromeTrace(traceOut))
        fatal("lpbench_gen: cannot write " + traceOut);

    const engine::PipelineCounters &pc = kv.pipeline(0).counters();
    JsonValue::Object o;
    o["ops"] = ops;
    o["failed"] = failed;
    o["put_p50_ns"] = percentile(putNs, 50);
    o["get_p50_ns"] = percentile(getNs, 50);
    o["commit_p50_ns"] = percentile(commitNs, 50);
    o["scan_ns_per_rec"] = scanRecs == 0 ? 0.0 : double(scanNs) / double(scanRecs);
    o["checkpoint_ns"] = checkpointNs;
    o["ops_staged"] = pc.opsStaged;
    o["epochs_committed"] = pc.epochsCommitted;
    o["folds"] = pc.folds;
    o["clock_epoch_us"] = clockEpochUs();
    std::printf("%s\n", JsonValue(std::move(o)).render().c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s load|phases|sim|simsetup|replay [--name value ...]\n",
                     argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    const Args a(argc, argv);
    if (cmd == "load")
        return cmdLoad(a);
    if (cmd == "phases")
        return cmdPhases(a);
    if (cmd == "sim")
        return cmdSim(a);
    if (cmd == "simsetup")
        return cmdSimSetup(a);
    if (cmd == "replay")
        return cmdReplay(a);
    std::fprintf(stderr, "lpbench_gen: unknown subcommand %s\n", cmd.c_str());
    return 2;
}
