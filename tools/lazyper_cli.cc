/**
 * @file
 * lazyper_cli -- run any kernel x scheme x machine configuration from
 * the command line and print the measurements. The fastest way to
 * explore the design space without writing code.
 *
 * Examples:
 *   lazyper_cli --kernel tmm --scheme lp
 *   lazyper_cli --kernel gauss --scheme ep --n 128 --threads 4
 *   lazyper_cli --kernel fft --scheme lp --crash-at 50 --seed 7
 *   lazyper_cli --kernel tmm --scheme lp --l2-kb 64 \
 *               --checksum adler32 --cleaner-period 100000
 *
 * The `store` subcommand drives the persistent KV store instead of a
 * kernel (see docs/store_design.md):
 *   lazyper_cli store --backend lp --mix a --records 4096 --ops 16384
 *   lazyper_cli store --backend wal --mix b --uniform --json
 *   lazyper_cli store --backend lp --crash-at 2000
 *
 * The `serve` subcommand runs the lp::server network front-end over
 * file-backed shards (see docs/server_design.md):
 *   lazyper_cli serve --data-dir /tmp/lpdb --port 7070 --shards 4
 *   lazyper_cli serve --data-dir /tmp/lpdb --backend wal
 *
 * The `top` subcommand polls a live server's METRICS op and renders a
 * refreshing per-shard table (docs/observability.md):
 *   lazyper_cli top --data-dir /tmp/lpdb
 *   lazyper_cli top --port 7070 --interval-ms 500
 *
 * The `inject` subcommand flips bits in a shard's backing file to
 * exercise the media-fault tolerance layer (docs/repair_design.md):
 *   lazyper_cli inject --data-dir /tmp/lpdb --shard 0 --site superblock
 *   lazyper_cli inject --data-dir /tmp/lpdb --site journal --bytes 64
 *
 * The `postmortem` subcommand decodes the crash-persistent flight
 * recorder out of a dead server's shard files and writes the
 * surviving spans as Chrome trace JSON (docs/observability.md):
 *   lazyper_cli postmortem --data-dir /tmp/lpdb
 *   lazyper_cli postmortem --data-dir /tmp/lpdb --out crash.json
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/logging.hh"
#include "kernels/env.hh"
#include "kernels/harness.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pmem/fault.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "store/driver.hh"
#include "store/kv_store.hh"
#include "txn/prepare_log.hh"

using namespace lp;
using namespace lp::kernels;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --kernel tmm|cholesky|conv2d|gauss|fft|spmv\n"
        "  --scheme base|lp|ep|wal                  (default lp)\n"
        "  --n N             problem size            (default 128)\n"
        "  --bsize B         tile/band size          (default 16)\n"
        "  --threads T       worker threads          (default 8)\n"
        "  --iterations I    conv2d outer iterations (default 4)\n"
        "  --checksum parity|modular|adler32|combined|crc32\n"
        "  --seed S          input seed              (default 12345)\n"
        "  --l1-kb K         per-core L1 size        (default 16)\n"
        "  --l2-kb K         shared L2 size          (default 128)\n"
        "  --read-ns / --write-ns   NVMM latencies   (150 / 300)\n"
        "  --cleaner-period C       cycles, 0 = off  (default 0)\n"
        "  --crash-at P      crash at P%% of the LP store stream,\n"
        "                    recover, resume, verify (default off)\n"
        "  --json            emit the full stats snapshot as JSON\n"
        "or: %s store ...   (persistent KV store; see `%s store -h`)\n"
        "or: %s serve ...   (network front-end; see `%s serve -h`)\n"
        "or: %s top ...     (live server metrics; see `%s top -h`)\n"
        "or: %s inject ...  (media-fault injection; `%s inject -h`)\n"
        "or: %s postmortem ...  (crashed-server flight recorder dump;\n"
        "                        see `%s postmortem -h`)\n",
        argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
        argv0, argv0, argv0);
    std::exit(2);
}

KernelId
parseKernel(const std::string &s)
{
    if (s == "tmm")
        return KernelId::Tmm;
    if (s == "cholesky")
        return KernelId::Cholesky;
    if (s == "conv2d" || s == "2d-conv")
        return KernelId::Conv2d;
    if (s == "gauss")
        return KernelId::Gauss;
    if (s == "fft")
        return KernelId::Fft;
    if (s == "spmv")
        return KernelId::Spmv;
    fatal("unknown kernel: " + s);
}

Scheme
parseScheme(const std::string &s)
{
    if (s == "base")
        return Scheme::Base;
    if (s == "lp")
        return Scheme::Lp;
    if (s == "ep" || s == "eager")
        return Scheme::EagerRecompute;
    if (s == "wal")
        return Scheme::Wal;
    fatal("unknown scheme: " + s);
}

/**
 * The value of a numeric flag (--shards, --port, --capacity, ...):
 * a base-10 T in [@p min, @p max] that spans the whole string.
 * Anything else is a usage error (@p usage exits 2); atoi/strtoull
 * would read "abc" as 0 and wrap "70000" or "-1" into range.
 */
template <typename T = int>
T
parseCount(const std::string &s, void (*usage)(const char *),
           const char *argv0, T min = 1,
           T max = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = s.data() + s.size();
    const auto [at, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || at != end || v < min || v > max)
        usage(argv0);
    return v;
}

core::ChecksumKind
parseChecksum(const std::string &s)
{
    if (s == "parity")
        return core::ChecksumKind::Parity;
    if (s == "modular")
        return core::ChecksumKind::Modular;
    if (s == "adler32")
        return core::ChecksumKind::Adler32;
    if (s == "combined" || s == "modular+parity")
        return core::ChecksumKind::ModularParity;
    if (s == "crc32")
        return core::ChecksumKind::Crc32;
    fatal("unknown checksum kind: " + s);
}

[[noreturn]] void
storeUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s store [options]\n"
        "  --backend lp|eager|wal    persistency scheme  (default lp)\n"
        "  --records R     loaded key-space size         (default 4096)\n"
        "  --ops O         mix operations                (default 16384)\n"
        "  --mix a|b|c     YCSB mix                      (default a)\n"
        "  --uniform       uniform keys instead of zipfian\n"
        "  --theta T       zipfian skew                  (default 0.99)\n"
        "  --shards S / --batch-ops B / --fold-batches F / --capacity C\n"
        "  --checksum parity|modular|adler32|combined|crc32\n"
        "  --seed S                                      (default 42)\n"
        "  --crash-at N    crash after N persistent stores, recover,\n"
        "                  verify against the committed-batch replay\n"
        "  --crash-regions N   same, but after N region commits\n"
        "  --trace-out F   write a Chrome trace-event JSON (epoch\n"
        "                  commits, folds, recovery spans) to F\n"
        "  --json          emit the result as JSON\n",
        argv0);
    std::exit(2);
}

[[noreturn]] void
serveUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s serve [options]\n"
        "  --data-dir D    shard files + PORT file   (default ./lpdb)\n"
        "  --host H        listen address            (default 127.0.0.1)\n"
        "  --port P        TCP port, 0 = ephemeral   (default 0)\n"
        "  --shards S      worker threads = shards   (default 4)\n"
        "  --backend lp|eager|wal                    (default lp)\n"
        "  --capacity C    max live keys per shard   (default 16384)\n"
        "  --batch-ops B / --fold-batches F\n"
        "  --checksum parity|modular|adler32|combined|crc32\n"
        "  --max-inflight N   per-connection backpressure "
        "(default 256)\n"
        "  --max-conns N      connection cap         (default 256)\n"
        "  --trace-out F   write a Chrome trace-event JSON (epoch\n"
        "                  commits, folds, recovery, connection\n"
        "                  lifecycles, request flows) to F at shutdown\n"
        "  --flight-events N   per-shard crash-persistent flight\n"
        "                  recorder slots, 0 = off  (default 4096);\n"
        "                  decode after a crash with `postmortem`\n"
        "  --quiet\n"
        "Runs until SIGINT/SIGTERM or a SHUTDOWN op; on shutdown every\n"
        "shard is checkpointed (eager fold) before the process exits.\n",
        argv0);
    std::exit(2);
}

int
runServeCommand(int argc, char **argv)
{
    server::ServerConfig cfg;
    cfg.dataDir = "./lpdb";

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                serveUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--data-dir") {
            cfg.dataDir = next();
        } else if (arg == "--host") {
            cfg.host = next();
        } else if (arg == "--port") {
            cfg.port = parseCount(next(), serveUsage, argv[0], 0, 65535);
        } else if (arg == "--shards") {
            cfg.shards = parseCount(next(), serveUsage, argv[0]);
        } else if (arg == "--backend") {
            cfg.backend = store::parseBackend(next());
        } else if (arg == "--capacity") {
            cfg.capacityPerShard =
                parseCount<std::size_t>(next(), serveUsage, argv[0]);
        } else if (arg == "--batch-ops") {
            cfg.batchOps = parseCount(next(), serveUsage, argv[0]);
        } else if (arg == "--fold-batches") {
            cfg.foldBatches = parseCount(next(), serveUsage, argv[0]);
        } else if (arg == "--checksum") {
            cfg.checksum = parseChecksum(next());
        } else if (arg == "--max-inflight") {
            cfg.maxInflightPerConn =
                parseCount<std::uint32_t>(next(), serveUsage, argv[0]);
        } else if (arg == "--max-conns") {
            cfg.maxConns = parseCount(next(), serveUsage, argv[0]);
        } else if (arg == "--trace-out") {
            cfg.traceOut = next();
        } else if (arg == "--flight-events") {
            cfg.flightEvents = parseCount<std::uint32_t>(
                next(), serveUsage, argv[0], 0);
        } else if (arg == "--quiet") {
            cfg.quiet = true;
        } else {
            serveUsage(argv[0]);
        }
    }

    server::Server srv(cfg);
    srv.start();
    srv.installSignalHandlers();
    srv.join();
    return 0;
}

int
runStoreCommand(int argc, char **argv)
{
    using namespace lp::store;

    Backend backend = Backend::Lp;
    StoreConfig scfg;
    YcsbParams p;
    std::int64_t crash_at = -1;
    bool crash_regions = false;
    bool json = false;
    std::string traceOut;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                storeUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--backend") {
            backend = parseBackend(next());
        } else if (arg == "--records") {
            p.records = parseCount<std::size_t>(next(), storeUsage, argv[0]);
        } else if (arg == "--ops") {
            p.ops = parseCount<std::size_t>(next(), storeUsage, argv[0]);
        } else if (arg == "--mix") {
            p.mix = parseMix(next());
        } else if (arg == "--uniform") {
            p.zipfian = false;
        } else if (arg == "--theta") {
            p.theta = std::atof(next().c_str());
        } else if (arg == "--shards") {
            scfg.shards = parseCount(next(), storeUsage, argv[0]);
        } else if (arg == "--batch-ops") {
            scfg.batchOps = parseCount(next(), storeUsage, argv[0]);
        } else if (arg == "--fold-batches") {
            scfg.foldBatches = parseCount(next(), storeUsage, argv[0]);
        } else if (arg == "--capacity") {
            scfg.capacity =
                parseCount<std::size_t>(next(), storeUsage, argv[0]);
        } else if (arg == "--checksum") {
            scfg.checksum = parseChecksum(next());
        } else if (arg == "--seed") {
            p.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--crash-at") {
            crash_at = std::atoll(next().c_str());
            crash_regions = false;
        } else if (arg == "--crash-regions") {
            crash_at = std::atoll(next().c_str());
            crash_regions = true;
        } else if (arg == "--trace-out") {
            traceOut = next();
        } else if (arg == "--json") {
            json = true;
        } else {
            storeUsage(argv[0]);
        }
    }

    sim::MachineConfig mcfg;
    mcfg.numCores = 1;
    mcfg.l1 = {16 * 1024, 8, 2};
    mcfg.l2 = {128 * 1024, 8, 11};

    std::printf("store backend=%s records=%zu ops=%zu mix=%s %s "
                "shards=%d batch=%d fold=%d checksum=%s\n",
                backendName(backend).c_str(), p.records, p.ops,
                mixName(p.mix).c_str(),
                p.zipfian ? "zipfian" : "uniform", scfg.shards,
                scfg.batchOps, scfg.foldBatches,
                core::checksumKindName(scfg.checksum).c_str());

    std::unique_ptr<obs::TraceCollector> trace;
    if (!traceOut.empty())
        trace = std::make_unique<obs::TraceCollector>();
    const auto writeTrace = [&] {
        if (!trace)
            return;
        if (trace->writeChromeTrace(traceOut))
            inform("wrote trace " + traceOut);
        else
            warn("could not write trace file " + traceOut);
    };

    if (crash_at >= 0) {
        StoreCrashSpec spec;
        spec.records = p.records;
        spec.preOps = p.ops;
        spec.byRegions = crash_regions;
        spec.point = static_cast<std::uint64_t>(crash_at);
        spec.seed = p.seed;
        const auto out =
            runStoreWithCrash(backend, scfg, spec, mcfg, trace.get());
        std::printf(
            "crash after %lld %s: %s\n",
            static_cast<long long>(crash_at),
            crash_regions ? "region commits" : "persistent stores",
            out.crashed ? "fired" : "did not fire");
        std::printf("recovery: replayed=%llu entries=%llu "
                    "discarded=%llu wal-undone=%llu\n",
                    static_cast<unsigned long long>(
                        out.report.batchesReplayed),
                    static_cast<unsigned long long>(
                        out.report.entriesReplayed),
                    static_cast<unsigned long long>(
                        out.report.batchesDiscarded),
                    static_cast<unsigned long long>(
                        out.report.walUndone));
        const bool ok =
            out.committedStateVerified && out.finalStateVerified;
        std::printf("committed state: %s   final state: %s\n",
                    out.committedStateVerified ? "verified" : "WRONG",
                    out.finalStateVerified ? "verified" : "WRONG");
        writeTrace();
        return ok ? 0 : 1;
    }

    const auto out = runStoreYcsb(backend, scfg, p, mcfg, trace.get());
    writeTrace();
    if (json) {
        stats::JsonValue::Object obj = stats::toJson(out.stats);
        obj.emplace("backend", backendName(backend));
        obj.emplace("mix", mixName(p.mix));
        obj.emplace("zipfian", p.zipfian);
        obj.emplace("records", double(p.records));
        obj.emplace("ops", double(p.ops));
        obj.emplace("writes_per_mutation", out.writesPerMutation);
        obj.emplace("ops_per_sec", out.opsPerSec);
        obj.emplace("verified", out.verified);
        std::printf("%s\n", stats::JsonValue(obj).render().c_str());
        return out.verified ? 0 : 1;
    }
    std::printf("exec cycles:     %.0f\n", out.execCycles);
    std::printf("NVMM writes:     %llu\n",
                static_cast<unsigned long long>(out.nvmmWrites));
    std::printf("reads/mutations: %llu / %llu\n",
                static_cast<unsigned long long>(out.reads),
                static_cast<unsigned long long>(out.mutations));
    std::printf("writes/mutation: %.3f\n", out.writesPerMutation);
    std::printf("throughput:      %.3g ops/s (simulated)\n",
                out.opsPerSec);
    std::printf("verified:        %s\n", out.verified ? "yes" : "NO");
    return out.verified ? 0 : 1;
}

[[noreturn]] void
topUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s top [options]\n"
        "  --host H        server address          (default 127.0.0.1)\n"
        "  --port P        server port; when 0, read --data-dir/PORT\n"
        "  --data-dir D    directory with the PORT file (default ./lpdb)\n"
        "  --interval-ms M refresh period          (default 1000)\n"
        "  --count N       frames to render, 0 = until the server\n"
        "                  goes away               (default 0)\n"
        "  --no-clear      append frames instead of clearing the screen\n"
        "Scrapes the METRICS op each interval and shows per-shard op\n"
        "rates plus latency percentiles computed from the interval's\n"
        "histogram bucket deltas. The first frame shows totals since\n"
        "server start.\n",
        argv0);
    std::exit(2);
}

/**
 * Collect the `<name>_bucket{...}` series of one histogram from a
 * parsed exposition: le bound -> cumulative count. @p shard empty
 * selects the unlabelled series.
 */
std::map<double, double>
bucketSeries(const stats::Snapshot &snap, const std::string &name,
             const std::string &shard)
{
    const std::string prefix =
        shard.empty()
            ? name + "_bucket{le=\""
            : name + "_bucket{shard=\"" + shard + "\",le=\"";
    std::map<double, double> out;
    for (auto it = snap.lower_bound(prefix);
         it != snap.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const char *s = it->first.c_str() + prefix.size();
        const double le =
            std::strncmp(s, "+Inf", 4) == 0
                ? std::numeric_limits<double>::infinity()
                : std::strtod(s, nullptr);
        out[le] = it->second;
    }
    return out;
}

int
runTopCommand(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::string dataDir = "./lpdb";
    int port = 0;
    int intervalMs = 1000;
    int count = 0;
    bool noClear = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                topUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--host") {
            host = next();
        } else if (arg == "--port") {
            port = std::atoi(next().c_str());
        } else if (arg == "--data-dir") {
            dataDir = next();
        } else if (arg == "--interval-ms") {
            intervalMs = std::atoi(next().c_str());
        } else if (arg == "--count") {
            count = std::atoi(next().c_str());
        } else if (arg == "--no-clear") {
            noClear = true;
        } else {
            topUsage(argv[0]);
        }
    }

    if (port == 0) {
        port = server::waitForPortFile(dataDir, 2000);
        if (port == 0)
            fatal("no PORT file in " + dataDir +
                  "; pass --port or --data-dir");
    }
    server::Client cli;
    if (!cli.connectTo(host, port))
        fatal("cannot connect to " + host + ":" +
              std::to_string(port));

    const auto scalar = [](const stats::Snapshot &s,
                           const std::string &key) {
        const auto it = s.find(key);
        return it == s.end() ? 0.0 : it->second;
    };

    stats::Snapshot prev;
    for (int frame = 0; count == 0 || frame < count; ++frame) {
        if (frame > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intervalMs));
        const auto resp = cli.metrics(5000);
        if (!resp || resp->status != server::Status::Ok) {
            std::fprintf(stderr, "lp top: server went away\n");
            return frame > 0 ? 0 : 1;
        }
        stats::Snapshot snap;
        if (!obs::parseExposition(resp->body, snap))
            fatal("unparseable METRICS exposition");

        // Interval deltas of the monotonic counters (and histogram
        // buckets); the first frame diffs against empty = totals.
        const stats::Snapshot d = stats::snapshotDelta(prev, snap);
        const double secs =
            frame == 0 ? 1.0 : double(intervalMs) / 1000.0;

        if (!noClear)
            std::printf("\033[H\033[2J");
        std::printf("lp top -- %s:%d   conns=%g accepted=%g "
                    "retries=%g errors=%g   (%s)\n",
                    host.c_str(), port,
                    scalar(snap, "lp_connections"),
                    scalar(snap, "lp_accepted"),
                    scalar(snap, "lp_retries"),
                    scalar(snap, "lp_errors"),
                    frame == 0 ? "totals since start"
                               : "per-second rates");
        // Transaction line only when the server exports the TXN
        // counters (same vintage discipline as the scan/repair
        // columns below; the gate keys on lp_txn_commits). The
        // counters are unlabelled totals -- a transaction spans
        // shards -- so they get a summary line, not per-shard
        // columns. Abort rate is per interval: aborts over decided
        // transactions, the wait-die pressure gauge.
        if (snap.find("lp_txn_commits") != snap.end()) {
            const double tc = scalar(d, "lp_txn_commits");
            const double ta = scalar(d, "lp_txn_aborts");
            const double decided = tc + ta;
            std::printf("txn: commit/s=%.0f abort/s=%.0f "
                        "abort-rate=%.1f%% commit p99=%.1fus\n",
                        tc / secs, ta / secs,
                        decided == 0.0 ? 0.0
                                       : 100.0 * ta / decided,
                        obs::quantileFromBuckets(
                            bucketSeries(d,
                                         "lp_txn_commit_lat_seconds",
                                         ""),
                            0.99) *
                            1e6);
        }
        // Datapath line only when the server exports the lp::net
        // gauges (same vintage discipline: an older server simply
        // lacks lp_conn_active). writev batch depth comes from the
        // unitless histogram's interval delta -- the live measure of
        // how well replies coalesce into gathered writes.
        if (snap.find("lp_conn_active") != snap.end()) {
            std::printf("net: active=%g outbuf=%gB eagain/s=%.0f "
                        "writev-batch p50=%.0f p99=%.0f\n",
                        scalar(snap, "lp_conn_active"),
                        scalar(snap, "lp_outbuf_bytes"),
                        scalar(d, "lp_eagain_total") / secs,
                        obs::quantileFromBuckets(
                            bucketSeries(d, "lp_writev_batch", ""),
                            0.5),
                        obs::quantileFromBuckets(
                            bucketSeries(d, "lp_writev_batch", ""),
                            0.99));
        }
        // Scan/index columns only when the server exports them:
        // against an older server without SCAN support the keys are
        // simply absent and the table keeps its classic shape (no
        // blank columns), so one `top` build monitors both vintages.
        const bool hasScans =
            snap.find("lp_scans{shard=\"0\"}") != snap.end();
        // Same vintage guard for the media-fault columns: an older
        // server never exports lp_media_repaired_total, so the
        // columns are skipped entirely rather than rendered blank.
        const bool hasMedia =
            snap.find("lp_media_repaired_total{shard=\"0\"}") !=
            snap.end();
        // Trace-drop column, gated the same way: an older server
        // never exports lp_trace_drops_total.
        const bool hasDrops =
            snap.find("lp_trace_drops_total{shard=\"0\"}") !=
            snap.end();
        std::vector<std::string> hdr = {
            "shard", "get/s", "mut/s", "epoch/s", "fold/s", "qdepth",
            "epoch", "commit p99", "qwait p99", "cwait p99"};
        if (hasScans) {
            hdr.push_back("scan/s");
            hdr.push_back("scan p99");
            hdr.push_back("idx keys");
            hdr.push_back("idx KB");
        }
        if (hasMedia) {
            hdr.push_back("scrub/s");
            hdr.push_back("repair");
            hdr.push_back("unrep");
            hdr.push_back("quar");
        }
        if (hasDrops)
            hdr.push_back("drops");
        stats::Table t(hdr);
        const auto us = [](double seconds) {
            return stats::Table::num(seconds * 1e6, 1) + "us";
        };
        for (int sIdx = 0;; ++sIdx) {
            const std::string sh = std::to_string(sIdx);
            const std::string lab = "{shard=\"" + sh + "\"}";
            if (snap.find("lp_gets" + lab) == snap.end())
                break;
            std::vector<std::string> row = {
                sh,
                stats::Table::num(scalar(d, "lp_gets" + lab) / secs,
                                  0),
                stats::Table::num(
                    scalar(d, "lp_mutations" + lab) / secs, 0),
                stats::Table::num(
                    scalar(d, "lp_epochs_committed" + lab) / secs,
                    0),
                stats::Table::num(scalar(d, "lp_folds" + lab) / secs,
                                  0),
                stats::Table::num(
                    scalar(snap, "lp_queue_depth" + lab), 0),
                stats::Table::num(
                    scalar(snap, "lp_committed_epoch" + lab), 0),
                us(obs::quantileFromBuckets(
                    bucketSeries(d, "lp_commit_lat_seconds", sh),
                    0.99)),
                us(obs::quantileFromBuckets(
                    bucketSeries(d, "lp_req_queue_seconds", sh),
                    0.99)),
                us(obs::quantileFromBuckets(
                    bucketSeries(d, "lp_req_commit_wait_seconds",
                                 sh),
                    0.99))};
            if (hasScans) {
                row.push_back(stats::Table::num(
                    scalar(d, "lp_scans" + lab) / secs, 0));
                row.push_back(us(obs::quantileFromBuckets(
                    bucketSeries(d, "lp_scan_lat_seconds", sh),
                    0.99)));
                row.push_back(stats::Table::num(
                    scalar(snap, "lp_index_entries" + lab), 0));
                row.push_back(stats::Table::num(
                    scalar(snap, "lp_index_bytes" + lab) / 1024.0,
                    1));
            }
            if (hasMedia) {
                // Repair counters are lifetime totals, not rates: a
                // single repaired region is the whole story, and it
                // must not fade out after one refresh interval.
                row.push_back(stats::Table::num(
                    scalar(d, "lp_scrub_regions" + lab) / secs, 0));
                row.push_back(stats::Table::num(
                    scalar(snap, "lp_media_repaired_total" + lab),
                    0));
                row.push_back(stats::Table::num(
                    scalar(snap,
                           "lp_media_unrepairable_total" + lab),
                    0));
                row.push_back(
                    scalar(snap, "lp_quarantined" + lab) > 0
                        ? "YES"
                        : "-");
            }
            if (hasDrops) {
                // Lifetime total, like the repair counters: a ring
                // that ever overflowed is worth knowing about long
                // after the burst that did it.
                row.push_back(stats::Table::num(
                    scalar(snap, "lp_trace_drops_total" + lab), 0));
            }
            t.addRow(std::move(row));
        }
        t.print();
        std::fflush(stdout);
        prev = std::move(snap);
    }
    return 0;
}

[[noreturn]] void
injectUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s inject [options]\n"
        "  --data-dir D    server data directory     (default ./lpdb)\n"
        "  --shard N       shard file to corrupt     (default 0)\n"
        "  --site superblock|superblock-replica|journal|parity\n"
        "                  what to corrupt           (default superblock);\n"
        "                  a batch digest lives in its journal header:\n"
        "                  --site journal --offset 16 rots the first\n"
        "                  batch's digest\n"
        "  --offset O      byte offset within site   (default 0)\n"
        "  --bit B         bit 0-7 to flip           (default 3)\n"
        "  --bytes N       corrupt N bytes from offset instead of a\n"
        "                  single bit flip\n"
        "  --seed S        mask seed for --bytes     (default 1)\n"
        "  --backend lp|eager|wal  must match the server (default lp)\n"
        "  --capacity C / --batch-ops B / --fold-batches F /\n"
        "  --checksum K / --flight-events N / --prepare-slots S\n"
        "                  must match the serve flags (the layout is\n"
        "                  re-derived from the configuration)\n"
        "Flips bits in the mmap'd backing file of a shard -- simulated\n"
        "bit rot underneath the store. Works on a stopped store (the\n"
        "next restart's recovery must detect it) and on a live one\n"
        "(the shared page cache makes the flip visible to the serving\n"
        "process; its next scrub pass must catch it). Never repairs\n"
        "anything; see `top` or METRICS for the repair counters.\n",
        argv0);
    std::exit(2);
}

int
runInjectCommand(int argc, char **argv)
{
    using namespace lp::store;

    std::string dataDir = "./lpdb";
    int shard = 0;
    std::string site = "superblock";
    std::size_t offset = 0;
    int bit = 3;
    std::size_t bytes = 0;
    std::uint64_t seed = 1;
    Backend backend = Backend::Lp;
    StoreConfig scfg;
    scfg.capacity = 16384;  // serve defaults; override to match
    scfg.shards = 1;        // one arena file per server shard
    std::uint32_t flightEvents = 4096;
    std::size_t prepareSlots = 128;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                injectUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--data-dir") {
            dataDir = next();
        } else if (arg == "--shard") {
            shard = parseCount(next(), injectUsage, argv[0], 0);
        } else if (arg == "--site") {
            site = next();
        } else if (arg == "--offset") {
            offset = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--bit") {
            bit = std::atoi(next().c_str());
        } else if (arg == "--bytes") {
            bytes = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seed") {
            seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--backend") {
            backend = parseBackend(next());
        } else if (arg == "--capacity") {
            scfg.capacity =
                parseCount<std::size_t>(next(), injectUsage, argv[0]);
        } else if (arg == "--batch-ops") {
            scfg.batchOps = parseCount(next(), injectUsage, argv[0]);
        } else if (arg == "--fold-batches") {
            scfg.foldBatches = parseCount(next(), injectUsage, argv[0]);
        } else if (arg == "--checksum") {
            scfg.checksum = parseChecksum(next());
        } else if (arg == "--flight-events") {
            flightEvents = parseCount<std::uint32_t>(
                next(), injectUsage, argv[0], 0);
        } else if (arg == "--prepare-slots") {
            prepareSlots =
                parseCount<std::size_t>(next(), injectUsage, argv[0]);
        } else {
            injectUsage(argv[0]);
        }
    }

    const std::string path =
        dataDir + "/shard-" + std::to_string(shard) + ".lpdb";
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || st.st_size == 0)
        fatal("no shard backing file at " + path +
              "; point --data-dir/--shard at an initialized store");

    // Re-attach the arena and re-derive the shard layout exactly the
    // way a restarting server does: same total size (flight ring +
    // store + prepare log -- a size mismatch fatal()s in the mmap),
    // same allocation order. The flight ring region is skipped with a
    // bare allocRaw rather than a FlightRing, whose constructor would
    // seal a new generation into a live server's recorder; KvStore
    // attach construction writes nothing, it only replays the
    // allocation sequence, so this is safe against both a stopped
    // file and a live server's mapping (MAP_SHARED over the same
    // pages).
    pmem::PersistentArena arena(
        (flightEvents > 0 ? obs::FlightRing::bytesFor(flightEvents)
                          : 0) +
            storeArenaBytes(scfg) + txn::prepareLogBytes(prepareSlots),
        path);
    if (flightEvents > 0)
        arena.allocRaw(obs::FlightRing::bytesFor(flightEvents));
    store::KvStore<kernels::NativeEnv> kv(arena, scfg, backend,
                                          /*attach=*/true);
    const FaultSurface fs = kv.shard(0).faultSurface();

    const void *base = nullptr;
    std::size_t limit = 0;
    if (site == "superblock") {
        base = fs.metaPrimary;
        limit = sizeof(ShardMeta);
    } else if (site == "superblock-replica") {
        base = fs.metaReplica;
        limit = sizeof(ShardMeta);
    } else if (site == "journal") {
        base = fs.journal;
        limit = fs.sealedBytes ? fs.sealedBytes : fs.journalBytes;
    } else if (site == "parity") {
        base = fs.parity;
        limit = fs.parityBytes;
    } else {
        injectUsage(argv[0]);
    }
    if (!base || limit == 0)
        fatal("site '" + site + "' does not exist on backend " +
              backendName(backend) + " (or the shard is empty)");
    if (offset >= limit || (bytes > 0 && offset + bytes > limit))
        fatal("offset/bytes past the end of site '" + site + "' (" +
              std::to_string(limit) + " bytes)");

    pmem::FaultInjector inj(arena);
    const auto *p = static_cast<const std::uint8_t *>(base) + offset;
    if (bytes > 0)
        inj.corruptRange(p, bytes, seed);
    else
        inj.flipBit(p, bit);
    arena.persistAll();

    std::printf("injected %llu fault byte%s into %s site=%s "
                "offset=%zu (file offset %llu)\n",
                static_cast<unsigned long long>(inj.flips()),
                inj.flips() == 1 ? "" : "s", path.c_str(),
                site.c_str(), offset,
                static_cast<unsigned long long>(arena.addrOf(p)));
    return 0;
}

[[noreturn]] void
postmortemUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s postmortem [DIR] [options]\n"
        "  DIR             crashed server's data directory\n"
        "  --data-dir D    same, as a flag (default ./lpdb)\n"
        "  --out F         Chrome trace JSON destination\n"
        "                  (default <data-dir>/postmortem.json)\n"
        "Decodes the crash-persistent flight recorder at the head of\n"
        "every shard-N.lpdb file (docs/observability.md): picks the\n"
        "newest checksum-clean seal, discards torn and stale slots,\n"
        "and writes the surviving spans -- request flow arcs included\n"
        "-- as Chrome trace-event JSON loadable in Perfetto. Reads\n"
        "the raw files only: no store configuration is needed and a\n"
        "live server is not disturbed. Run it BEFORE restarting a\n"
        "crashed server -- restart reseals the rings for the new\n"
        "incarnation.\n",
        argv0);
    std::exit(2);
}

int
runPostmortemCommand(int argc, char **argv)
{
    std::string dataDir = "./lpdb";
    std::string out;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                postmortemUsage(argv[0]);
            return argv[++i];
        };
        if (arg == "--data-dir") {
            dataDir = next();
        } else if (arg == "--out") {
            out = next();
        } else if (!arg.empty() && arg[0] != '-') {
            dataDir = arg; // positional: postmortem <dir>
        } else {
            postmortemUsage(argv[0]);
        }
    }
    if (out.empty())
        out = dataDir + "/postmortem.json";

    obs::TraceCollector trace;
    std::uint64_t totalEvents = 0, totalRejected = 0;
    int shardsFound = 0, shardsValid = 0;
    for (int s = 0;; ++s) {
        const std::string path =
            dataDir + "/shard-" + std::to_string(s) + ".lpdb";
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            break;
        struct stat st{};
        if (::fstat(fd, &st) != 0 ||
            st.st_size <= std::int64_t(blockBytes)) {
            ::close(fd);
            break;
        }
        const std::size_t len = std::size_t(st.st_size);
        void *map =
            ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (map == MAP_FAILED)
            fatal("cannot mmap " + path);
        ++shardsFound;
        // Placement contract (obs/flight.hh): the flight ring is the
        // shard arena's FIRST allocation, so its headers sit at the
        // arena base offset -- one block into the file.
        const auto *base = static_cast<const std::uint8_t *>(map);
        const obs::FlightRecovered rec = obs::FlightRing::recover(
            base + blockBytes, len - blockBytes);
        if (!rec.valid) {
            std::printf("shard %d: no valid flight seal in %s "
                        "(server ran with --flight-events 0, or the "
                        "region is damaged)\n",
                        s, path.c_str());
            ::munmap(map, len);
            continue;
        }
        ++shardsValid;
        char when[32] = "?";
        const std::time_t secs =
            std::time_t(rec.wallAnchorNs / 1000000000ULL);
        struct tm tmv{};
        if (::gmtime_r(&secs, &tmv) != nullptr)
            std::strftime(when, sizeof(when), "%Y-%m-%dT%H:%M:%SZ",
                          &tmv);
        std::printf("shard %d: gen=%llu sealed-events=%llu "
                    "recovered=%zu rejected=%llu sealed-at=%s\n",
                    s, static_cast<unsigned long long>(rec.gen),
                    static_cast<unsigned long long>(rec.sealedSeq),
                    rec.events.size(),
                    static_cast<unsigned long long>(rec.rejected),
                    when);
        obs::TraceRing *ring =
            trace.ring("shard-" + std::to_string(s) + "-flight",
                       rec.tid, rec.events.size() + 8);
        for (const obs::TraceEvent &e : rec.events)
            ring->push(e);
        totalEvents += rec.events.size();
        totalRejected += rec.rejected;
        ::munmap(map, len);
    }
    if (shardsFound == 0)
        fatal("no shard-*.lpdb files in " + dataDir);
    if (shardsValid == 0) {
        std::fprintf(
            stderr,
            "postmortem: no shard carried a valid flight seal\n");
        return 1;
    }
    if (!trace.writeChromeTrace(out))
        fatal("cannot write " + out);
    std::printf(
        "wrote %s (%llu events from %d/%d shards, %llu slots "
        "discarded as torn/stale)\n",
        out.c_str(), static_cast<unsigned long long>(totalEvents),
        shardsValid, shardsFound,
        static_cast<unsigned long long>(totalRejected));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "store") == 0)
        return runStoreCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
        return runServeCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "top") == 0)
        return runTopCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "inject") == 0)
        return runInjectCommand(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "postmortem") == 0)
        return runPostmortemCommand(argc, argv);

    KernelId kernel = KernelId::Tmm;
    Scheme scheme = Scheme::Lp;
    KernelParams params;
    sim::MachineConfig cfg;
    cfg.l1 = {16 * 1024, 8, 2};
    cfg.l2 = {128 * 1024, 8, 11};
    int crash_pct = -1;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--kernel") {
            kernel = parseKernel(next());
        } else if (arg == "--scheme") {
            scheme = parseScheme(next());
        } else if (arg == "--n") {
            params.n = std::atoi(next().c_str());
        } else if (arg == "--bsize") {
            params.bsize = std::atoi(next().c_str());
        } else if (arg == "--threads") {
            params.threads = std::atoi(next().c_str());
        } else if (arg == "--iterations") {
            params.iterations = std::atoi(next().c_str());
        } else if (arg == "--checksum") {
            params.checksum = parseChecksum(next());
        } else if (arg == "--seed") {
            params.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--l1-kb") {
            cfg.l1.sizeBytes = std::atoi(next().c_str()) * 1024;
        } else if (arg == "--l2-kb") {
            cfg.l2.sizeBytes = std::atoi(next().c_str()) * 1024;
        } else if (arg == "--read-ns") {
            cfg.nvmmReadNs = std::atof(next().c_str());
        } else if (arg == "--write-ns") {
            cfg.nvmmWriteNs = std::atof(next().c_str());
        } else if (arg == "--cleaner-period") {
            cfg.cleanerPeriodCycles =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--crash-at") {
            crash_pct = std::atoi(next().c_str());
        } else if (arg == "--json") {
            json = true;
        } else {
            usage(argv[0]);
        }
    }
    cfg.numCores = params.threads;

    std::printf("kernel=%s scheme=%s n=%d bsize=%d threads=%d "
                "checksum=%s L1=%uKB L2=%uKB NVMM=%g/%gns\n",
                kernelName(kernel).c_str(),
                schemeName(scheme).c_str(), params.n, params.bsize,
                params.threads,
                core::checksumKindName(params.checksum).c_str(),
                cfg.l1.sizeBytes / 1024, cfg.l2.sizeBytes / 1024,
                cfg.nvmmReadNs, cfg.nvmmWriteNs);

    if (crash_pct < 0) {
        const auto out = runScheme(kernel, scheme, params, cfg);
        if (json) {
            stats::JsonValue::Object obj = stats::toJson(out.stats);
            obj.emplace("kernel", kernelName(kernel));
            obj.emplace("scheme", schemeName(scheme));
            obj.emplace("verified", out.verified);
            std::printf("%s\n",
                        stats::JsonValue(obj).render().c_str());
            return out.verified ? 0 : 1;
        }
        std::printf("exec cycles:   %.0f\n", out.execCycles);
        std::printf("NVMM writes:   %.0f (evict %.0f, flush %.0f, "
                    "cleaner %.0f)\n",
                    out.nvmmWrites, out.stat("eviction_writes"),
                    out.stat("flush_writes"),
                    out.stat("cleaner_writes"));
        std::printf("NVMM reads:    %.0f\n", out.stat("nvmm_reads"));
        std::printf("flush instrs:  %.0f   fences: %.0f\n",
                    out.stat("flush_instrs"), out.stat("fences"));
        std::printf("L2 miss rate:  %.4f\n",
                    out.stat("l2_accesses") > 0
                        ? out.stat("l2_misses") /
                              out.stat("l2_accesses")
                        : 0.0);
        std::printf("verified:      %s (max abs err %.3e)\n",
                    out.verified ? "yes" : "NO", out.maxAbsError);
        return out.verified ? 0 : 1;
    }

    if (scheme != Scheme::Lp)
        fatal("--crash-at requires --scheme lp");
    const auto full = runScheme(kernel, Scheme::Lp, params, cfg);
    const auto total =
        static_cast<std::uint64_t>(full.stat("stores"));
    const auto out = runLpWithCrash(
        kernel, params, cfg,
        total * static_cast<std::uint64_t>(crash_pct) / 100);
    std::printf("crash injected at %d%% (%llu stores): %s\n",
                crash_pct,
                static_cast<unsigned long long>(
                    total * crash_pct / 100),
                out.crashed ? "fired" : "did not fire");
    std::printf("recovery: matched=%llu repaired=%llu checked=%llu "
                "resume-stage=%d\n",
                static_cast<unsigned long long>(out.recovery.matched),
                static_cast<unsigned long long>(
                    out.recovery.repaired),
                static_cast<unsigned long long>(out.recovery.checked),
                out.recovery.resumeStage);
    std::printf("recovery+resume cycles: %.0f\n", out.recoveryCycles);
    std::printf("verified: %s (max abs err %.3e)\n",
                out.verified ? "yes" : "NO", out.maxAbsError);
    return out.verified ? 0 : 1;
}
