/**
 * @file
 * Canonical stat key names for epoch/commit accounting.
 *
 * The store shards, the server's per-worker mirrors, and both JSON
 * benches report the same pipeline counters; before the engine layer
 * existed each site invented its own spelling ("folds" here,
 * "fold_count" there). Every emitter now names counters through these
 * constants so the JSON artifacts stay greppable and diffable across
 * subsystems.
 */

#ifndef LP_ENGINE_STAT_NAMES_HH
#define LP_ENGINE_STAT_NAMES_HH

namespace lp::engine::statname
{

/** Mutations staged into open epochs. */
inline constexpr const char *opsStaged = "ops_staged";

/** Epochs (batches) closed and committed. */
inline constexpr const char *epochsCommitted = "epochs_committed";

/** Eager checkpoints (LP journal folds) performed. */
inline constexpr const char *folds = "folds";

/** Acknowledgements released by epoch commit. */
inline constexpr const char *acksReleased = "acks_released";

/** Last committed epoch (volatile watermark). */
inline constexpr const char *committedEpoch = "committed_epoch";

/** Operations queued but not yet processed (server workers). */
inline constexpr const char *queueDepth = "queue_depth";

/** Read operations served. */
inline constexpr const char *gets = "gets";

/** Mutations (put/del) applied. */
inline constexpr const char *mutations = "mutations";

/** Range scans served (SCAN protocol op / KvStore::scan). */
inline constexpr const char *scans = "scans";

/** Transactions committed (TXN protocol op, both commit paths). */
inline constexpr const char *txnCommits = "txn_commits";

/** Transactions aborted (wait-die losses surfaced to clients). */
inline constexpr const char *txnAborts = "txn_aborts";

/** Live keys in the shard's ordered index (gauge). */
inline constexpr const char *indexEntries = "index_entries";

/** Resident bytes of the shard's ordered index, limbo included. */
inline constexpr const char *indexBytes = "index_bytes";

/// @name Latency histogram base keys (obs::Histogram, nanoseconds).
/// Emitters append percentile suffixes ("_p50".."_p999") in JSON and
/// rewrite the "_ns" tail to "_seconds" for Prometheus exposition.
/// @{

/** Backend stage(): one mutation staged into the open epoch. */
inline constexpr const char *stageLatNs = "stage_lat_ns";

/** Backend commitEpoch(): sealing one epoch. */
inline constexpr const char *commitLatNs = "commit_lat_ns";

/** Backend fold / eager checkpoint duration. */
inline constexpr const char *foldLatNs = "fold_lat_ns";

/** Backend recover(): one shard's recovery replay. */
inline constexpr const char *recoverLatNs = "recover_lat_ns";

/** Server: decoding one request frame off the socket. */
inline constexpr const char *reqParseNs = "req_parse_ns";

/** Server: request sat in a worker queue before processing. */
inline constexpr const char *reqQueueNs = "req_queue_ns";

/** Server: mutation processed until its epoch committed (ack release). */
inline constexpr const char *reqCommitWaitNs = "req_commit_wait_ns";

/** Server: reply posted by a worker until encoded for the socket. */
inline constexpr const char *reqAckNs = "req_ack_ns";

/** TXN accepted until its commit reply (durable) was posted. */
inline constexpr const char *txnCommitLatNs = "txn_commit_lat_ns";

/** TXN accepted until its abort reply was posted. */
inline constexpr const char *txnAbortLatNs = "txn_abort_lat_ns";

/** KvStore::scan(): whole-scan latency (index walk + value reads). */
inline constexpr const char *scanLatNs = "scan_lat_ns";

/**
 * Records returned per scan. Same histogram machinery as the latency
 * keys (count/percentile suffixes), but the samples are record
 * counts, not nanoseconds -- hence no "_ns" tail.
 */
inline constexpr const char *scanLen = "scan_len";

/**
 * Ops per committed epoch: how much write coalescing the commit
 * triggers leave. Counts, like scan_len.
 */
inline constexpr const char *commitBatchOps = "commit_batch_ops";
/// @}

/// @name Per-shard recovery counters (store::RecoveryReport).
/// @{

/** Journal batches replayed during recovery. */
inline constexpr const char *batchesReplayed = "batches_replayed";

/** Individual entries re-applied during recovery. */
inline constexpr const char *entriesReplayed = "entries_replayed";

/** Batches discarded for checksum mismatch / torn writes. */
inline constexpr const char *batchesDiscarded = "batches_discarded";

/** WAL transactions rolled back during recovery. */
inline constexpr const char *walUndone = "wal_undone";

/** 1 when the shard attached to an existing image, else 0. */
inline constexpr const char *recoveryAttached = "recovery_attached";
/// @}

/// @name Media-fault counters (store::MediaCounters, lp::repair).
/// Prometheus exposition spells the first two with a "_total" tail
/// (lp_media_repaired_total / lp_media_unrepairable_total), the
/// conventional counter suffix operators alert on.
/// @{

/** Corrupted structures detected and repaired (parity/replica). */
inline constexpr const char *mediaRepaired = "media_repaired";

/** Proven corruptions with no redundant copy left (quarantine). */
inline constexpr const char *mediaUnrepairable = "media_unrepairable";

/** Journal regions examined by the online scrubber. */
inline constexpr const char *scrubRegions = "scrub_regions";

/** Completed full scrub passes over a shard's covered prefix. */
inline constexpr const char *scrubPasses = "scrub_passes";

/** 1 when the shard is quarantined read-only, else 0 (gauge). */
inline constexpr const char *quarantined = "quarantined";

/** Shard::scrubStep(): one bounded online-scrub step. */
inline constexpr const char *scrubLatNs = "scrub_lat_ns";
/// @}

/// @name Connection-datapath counters (lp::net, server acceptor).
/// @{

/** Open client connections on the acceptor's event loop (gauge). */
inline constexpr const char *connActive = "conn_active";

/** Bytes queued in per-connection outbufs, unsent (gauge). */
inline constexpr const char *outbufBytes = "outbuf_bytes";

/**
 * iovecs per gathered writev(2) call. Histogram machinery like
 * scan_len: the samples are counts, not nanoseconds.
 */
inline constexpr const char *writevBatch = "writev_batch";

/** read/writev calls that hit EAGAIN (socket saturation). */
inline constexpr const char *eagainTotal = "eagain_total";
/// @}

/// @name Tracing-datapath counters (lp::obs).
/// @{

/**
 * Trace events dropped because a thread's volatile ring filled
 * before the collector drained it. Spelled with the "_total"
 * counter suffix directly: the key only ever appears in Prometheus
 * exposition (there is no JSON mirror to keep suffix-free).
 */
inline constexpr const char *traceDrops = "trace_drops_total";
/// @}

} // namespace lp::engine::statname

#endif // LP_ENGINE_STAT_NAMES_HH
