/**
 * @file
 * Observability rendering: the METRICS-op Prometheus exposition, the
 * server's one stats export. Reads only stat mirrors,
 * cross-thread-safe store atomics, and single-writer histograms
 * (the acceptor renders on its own thread; Server::metricsText()
 * callers accept the benign snapshot skew).
 */

#include "server/server_impl.hh"

#include "engine/stat_names.hh"
#include "obs/metrics.hh"

namespace lp::server
{

/**
 * The METRICS-op body: Prometheus text exposition of the server's
 * counters, gauges and full latency histogram bucket series,
 * labelled shard="i". Latency metric names rewrite the canonical
 * "_ns" tail to "_seconds" (Prometheus base units).
 */
std::string
Server::Impl::metricsTextNow() const
{
    namespace sn = engine::statname;
    const auto rel = [](const std::atomic<std::uint64_t> &a) {
        return double(a.load(std::memory_order_relaxed));
    };
    const auto promName = [](const char *base) {
        std::string n = std::string("lp_") + base;
        if (n.size() >= 3 && n.compare(n.size() - 3, 3, "_ns") == 0)
            n.replace(n.size() - 3, 3, "_seconds");
        return n;
    };
    obs::MetricsText mt;
    // Info-style gauge: the backend name rides as a label.
    mt.gauge("lp_backend_info",
             "backend=\"" + store::backendName(cfg.backend) + "\"", 1.0);
    mt.gauge("lp_connections", "", rel(statConns));
    mt.counter("lp_accepted", "", rel(statAccepted));
    mt.counter("lp_retries", "", rel(statRetries));
    mt.counter("lp_errors", "", rel(statErrs));
    mt.counter("lp_faults", "", rel(statFaults));
    mt.counter("lp_malformed", "", rel(statMalformed));
    // Connection-datapath stats (lp::net). lp_conn_active doubles
    // as the vintage gate for the `top` net line, like
    // lp_txn_commits does for the txn line.
    mt.gauge(promName(sn::connActive), "", rel(statConns));
    mt.gauge(promName(sn::outbufBytes), "",
             rel(netStats.outbufBytes));
    mt.counter(promName(sn::eagainTotal), "",
               rel(netStats.eagainTotal));
    mt.histogramRaw(promName(sn::writevBatch), "",
                    netStats.writevBatch);
    // Unlabelled txn totals sum both commit paths: the general path
    // on the acceptor (coordinator) and each worker's fast path.
    std::uint64_t txnC =
        statTxnCommits.load(std::memory_order_relaxed);
    std::uint64_t txnA =
        statTxnAborts.load(std::memory_order_relaxed);
    obs::Histogram txnCommitAll, txnAbortAll;
    txnCommitAll.merge(txnCommitNs);
    txnAbortAll.merge(txnAbortNs);
    for (const auto &wp : workers) {
        const auto &w = *wp;
        const std::string lab =
            "shard=\"" + std::to_string(w.index) + "\"";
        const std::uint64_t tc =
            w.statTxnCommits.load(std::memory_order_relaxed);
        const std::uint64_t ta =
            w.statTxnAborts.load(std::memory_order_relaxed);
        txnC += tc;
        txnA += ta;
        txnCommitAll.merge(w.txnCommitNs);
        txnAbortAll.merge(w.txnAbortNs);
        mt.counter(promName(sn::gets), lab, rel(w.statGets));
        mt.counter(promName(sn::mutations), lab, rel(w.statMuts));
        mt.counter(promName(sn::scans), lab, rel(w.statScans));
        mt.counter(promName(sn::txnCommits), lab, double(tc));
        mt.counter(promName(sn::txnAborts), lab, double(ta));
        mt.gauge(promName(sn::indexEntries), lab,
                 double(w.kv->indexEntries(0)));
        mt.gauge(promName(sn::indexBytes), lab,
                 double(w.kv->indexBytes(0)));
        mt.counter(promName(sn::acksReleased), lab,
                   rel(w.statAcks));
        mt.counter(promName(sn::epochsCommitted), lab,
                   rel(w.statEpochs));
        mt.counter(promName(sn::folds), lab, rel(w.statFolds));
        mt.gauge(promName(sn::committedEpoch), lab,
                 rel(w.statCommittedEpoch));
        mt.gauge(promName(sn::queueDepth), lab,
                 rel(w.statQueueDepth));
        mt.counter(promName(sn::recoveryAttached), lab,
                   w.attached ? 1.0 : 0.0);
        mt.counter(promName(sn::batchesReplayed), lab,
                   double(w.report.batchesReplayed));
        mt.counter(promName(sn::entriesReplayed), lab,
                   double(w.report.entriesReplayed));
        mt.counter(promName(sn::batchesDiscarded), lab,
                   double(w.report.batchesDiscarded));
        mt.counter(promName(sn::walUndone), lab,
                   w.report.walUndone ? 1.0 : 0.0);
        const store::MediaCounters &mc = w.kv->mediaCounters(0);
        mt.counter("lp_media_repaired_total", lab, rel(mc.repaired));
        mt.counter("lp_media_unrepairable_total", lab,
                   rel(mc.unrepairable));
        mt.counter(promName(sn::scrubRegions), lab,
                   rel(mc.scrubRegions));
        mt.counter(promName(sn::scrubPasses), lab,
                   rel(mc.scrubPasses));
        mt.gauge(promName(sn::quarantined), lab,
                 w.kv->quarantined(0) ? 1.0 : 0.0);
        const obs::ShardObs &ob = w.kv->shardObs(0);
        mt.histogramNs(promName(sn::stageLatNs), lab, ob.stageNs);
        mt.histogramNs(promName(sn::commitLatNs), lab,
                       ob.commitNs);
        mt.histogramNs(promName(sn::foldLatNs), lab, ob.foldNs);
        mt.histogramNs(promName(sn::recoverLatNs), lab,
                       ob.recoverNs);
        mt.histogramNs(promName(sn::scanLatNs), lab, ob.scanNs);
        // Samples are counts, not time: raw buckets.
        mt.histogramRaw(promName(sn::scanLen), lab, ob.scanLen);
        mt.histogramRaw(promName(sn::commitBatchOps), lab,
                        ob.commitBatchOps);
        mt.histogramNs(promName(sn::scrubLatNs), lab, ob.scrubNs);
        mt.histogramNs(promName(sn::reqQueueNs), lab, w.queueNs);
        mt.histogramNs(promName(sn::reqCommitWaitNs), lab,
                       w.commitWaitNs);
        // Events the shard's trace ring refused because it was full.
        // The flight recorder tees BEFORE the full-check, so drops
        // mean lost Chrome-trace detail, not lost flight coverage.
        // Doubles as the vintage gate for lazyper_cli top's `drops`
        // column (shard="0" is always present when this vintage
        // serves METRICS).
        if (w.ring)
            mt.counter(promName(sn::traceDrops), lab,
                       double(w.ring->dropped()));
    }
    if (acceptRing)
        mt.counter(promName(sn::traceDrops), "thread=\"acceptor\"",
                   double(acceptRing->dropped()));
    mt.histogramNs(promName(sn::reqParseNs), "", parseNs);
    mt.histogramNs(promName(sn::reqAckNs), "", ackNs);
    // Scrapers (and lazyper_cli top's vintage gate) key on the
    // unlabelled lp_txn_commits.
    mt.counter(promName(sn::txnCommits), "", double(txnC));
    mt.counter(promName(sn::txnAborts), "", double(txnA));
    mt.histogramNs(promName(sn::txnCommitLatNs), "", txnCommitAll);
    mt.histogramNs(promName(sn::txnAbortLatNs), "", txnAbortAll);
    return mt.str();
}

} // namespace lp::server
