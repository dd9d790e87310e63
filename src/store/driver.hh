/**
 * @file
 * Drivers for the KV store: the YCSB bench phases (templated over
 * Env, so the identical store code runs on the simulated machine and
 * natively), the simulated run returning machine statistics, and the
 * crash-injection harness that verifies recovery against a golden
 * replay of exactly the committed batches.
 */

#ifndef LP_STORE_DRIVER_HH
#define LP_STORE_DRIVER_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "obs/trace.hh"
#include "sim/config.hh"
#include "stats/stats.hh"
#include "store/kv_store.hh"
#include "store/ycsb.hh"

namespace lp::store
{

/** Operation counts of one mix phase. */
struct MixCounts
{
    std::uint64_t reads = 0;
    std::uint64_t readHits = 0;
    std::uint64_t mutations = 0;
    std::uint64_t scans = 0;
    std::uint64_t scanned = 0;     ///< records returned by all scans
    std::uint64_t scanErrors = 0;  ///< scans inconsistent with golden
};

/**
 * Load phase: insert every record, then checkpoint so the mix starts
 * from a fully durable image. @p golden, if given, tracks the
 * expected final map.
 */
template <typename Env>
void
ycsbLoad(Env &env, KvStore<Env> &store, const YcsbParams &p,
         std::unordered_map<std::uint64_t, std::uint64_t> *golden)
{
    for (std::size_t id = 0; id < p.records; ++id) {
        const std::uint64_t key = keyOfRecord(id, p.seed);
        const std::uint64_t val = id + 1;
        store.put(env, key, val);
        if (golden)
            (*golden)[key] = val;
    }
    store.checkpoint(env);
}

/**
 * Run the mix, ending with a checkpoint so every scheme pays its full
 * durability cost inside the measured window. YCSB-E scans are
 * cross-checked against @p golden inline (ascending keys, values
 * matching the golden map); any disagreement counts in scanErrors and
 * fails the run's verified flag.
 */
template <typename Env>
MixCounts
ycsbMix(Env &env, KvStore<Env> &store, const YcsbParams &p,
        std::unordered_map<std::uint64_t, std::uint64_t> *golden)
{
    using Kind = typename YcsbStream::Op::Kind;
    YcsbStream stream(p);
    MixCounts c;
    int scrubShard = 0;
    for (std::size_t i = 0; i < p.ops; ++i) {
        if (p.scrubEveryOps > 0 && i > 0 &&
            i % p.scrubEveryOps == 0) {
            store.shard(scrubShard).scrubStep(env, p.scrubRegions);
            scrubShard = (scrubShard + 1) % store.config().shards;
        }
        const auto op = stream.next();
        switch (op.kind) {
          case Kind::Read:
            ++c.reads;
            if (store.get(env, op.key))
                ++c.readHits;
            break;
          case Kind::Update:
          case Kind::Insert: {
            ++c.mutations;
            const std::uint64_t val = 0x100000 + i;
            store.put(env, op.key, val);
            if (golden)
                (*golden)[op.key] = val;
            break;
          }
          case Kind::Scan: {
            ++c.scans;
            const auto out = store.scan(env, op.key, op.scanLen);
            c.scanned += out.size();
            std::uint64_t prev = 0;
            bool ok = out.size() <= op.scanLen;
            for (std::size_t r = 0; ok && r < out.size(); ++r) {
                const auto &[k, v] = out[r];
                if (k < op.key || (r > 0 && k <= prev))
                    ok = false;
                prev = k;
                if (golden) {
                    const auto it = golden->find(k);
                    if (it == golden->end() || it->second != v)
                        ok = false;
                }
            }
            if (!ok)
                ++c.scanErrors;
            break;
          }
        }
    }
    store.checkpoint(env);
    return c;
}

/** Result of one simulated YCSB run (stats cover the mix only). */
struct StoreRunResult
{
    stats::Snapshot stats;
    double execCycles = 0.0;
    std::uint64_t nvmmWrites = 0;
    std::uint64_t reads = 0;
    std::uint64_t mutations = 0;
    std::uint64_t scans = 0;    ///< YCSB-E: scan ops in the mix
    std::uint64_t scanned = 0;  ///< YCSB-E: records returned

    /** Load-phase machine stats (records inserts + checkpoint). */
    stats::Snapshot loadStats;

    /** Load-phase NVMM block writes per inserted record. */
    double loadWritesPerRecord = 0.0;

    /** NVMM block writes per mutation (write amplification proxy). */
    double writesPerMutation = 0.0;

    /** Mix operations per simulated second. */
    double opsPerSec = 0.0;

    /**
     * Mix-phase commit-pipeline counters, summed over shards
     * (canonical names in engine/stat_names.hh). Host-side
     * bookkeeping only -- reading them costs no simulated work.
     */
    std::uint64_t opsStaged = 0;
    std::uint64_t epochsCommitted = 0;
    std::uint64_t folds = 0;

    /** Final persistent map equals the golden host-side replay. */
    bool verified = false;
};

/**
 * Give every shard of @p store a trace ring registered on @p tc
 * (tracks "shard-0"...), so epoch commits, folds, and recovery emit
 * spans. No-op when @p tc is null.
 */
template <typename Env>
void
attachStoreTrace(KvStore<Env> &store, obs::TraceCollector *tc,
                 std::size_t ringCapacity = 16384)
{
    if (tc == nullptr)
        return;
    for (int s = 0; s < store.config().shards; ++s)
        store.shard(s).attachTraceRing(
            tc->ring("shard-" + std::to_string(s), std::uint32_t(s),
                     ringCapacity));
}

/**
 * Load + mix on the simulated machine. With @p trace, every shard
 * emits spans into the collector (timestamps are host wall-clock:
 * structure and ordering are faithful, durations include simulation
 * overhead).
 */
StoreRunResult runStoreYcsb(Backend b, const StoreConfig &scfg,
                            const YcsbParams &p,
                            const sim::MachineConfig &mcfg,
                            obs::TraceCollector *trace = nullptr);

/** Result of the native (NativeEnv) run of the same phases. */
struct NativeRunResult
{
    double seconds = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t mutations = 0;
    std::uint64_t scans = 0;
    bool verified = false;

    /**
     * Wall-clock latency percentiles merged over shards, from the
     * always-on obs::Histogram instrumentation (load + mix phases).
     * stageLat is per-mutation and includes any commit/fold the
     * mutation triggered, so its tail is the fold-pause story.
     */
    obs::Histogram::Summary stageLat;
    obs::Histogram::Summary commitLat;
    obs::Histogram::Summary foldLat;
    obs::Histogram::Summary scanLat;  ///< whole-scan wall-clock
    obs::Histogram::Summary scanLen;  ///< records per scan (counts)
};

/** Load + mix natively: same templated code, native wall-clock. */
NativeRunResult runStoreNative(Backend b, const StoreConfig &scfg,
                               const YcsbParams &p,
                               obs::TraceCollector *trace = nullptr);

/** One crash-injection run. */
struct StoreCrashSpec
{
    std::size_t records = 512;   ///< key-space size of the op stream
    std::size_t preOps = 2000;   ///< mutations attempted before crash
    std::size_t postOps = 512;   ///< mutations after recovery
    double delFraction = 0.2;    ///< deletes among mutations
    bool byRegions = false;      ///< arm on region commits, not stores
    std::uint64_t point = 1;     ///< crash after this many stores/regions
    std::uint64_t seed = 7;

    /**
     * Torn-write injection: after the crash restores the durable
     * image, XOR-corrupt this many bytes straddling the end of shard
     * 0's sealed journal prefix (a partial-page device write dying
     * with the machine). 0 disables. Recovery must either
     * parity-repair the torn region or cleanly discard the affected
     * epochs -- never serve a torn batch.
     */
    std::size_t tornBytes = 0;
};

struct StoreCrashOutcome
{
    bool crashed = false;
    RecoveryReport report;

    /**
     * After recovery, the persistent map equalled the golden replay
     * of exactly the committed batches (for the eager backend: of all
     * completed ops, the single in-flight op optionally included).
     */
    bool committedStateVerified = false;

    /** After postOps more ops and a checkpoint, state still exact. */
    bool finalStateVerified = false;

    /**
     * Full-range scans through the rebuilt index agreed byte-for-byte
     * with the golden replay -- checked right after recovery (a scan
     * must never observe a torn epoch) and again at the end of the
     * run. True when no crash fired and both checks passed.
     */
    bool scanStateVerified = false;
};

/**
 * Run a deterministic put/del stream with a crash armed, recover,
 * verify the committed prefix, then keep going and verify again.
 * If the crash point lies beyond the run, the run just completes
 * (outcome.crashed == false) and the final check still applies.
 * With @p trace, the pre-crash epochs/folds and the recovery-phase
 * spans ("recover_shard") land in the collector.
 */
StoreCrashOutcome runStoreWithCrash(Backend b, const StoreConfig &scfg,
                                    const StoreCrashSpec &spec,
                                    const sim::MachineConfig &mcfg,
                                    obs::TraceCollector *trace =
                                        nullptr);

/**
 * Where the corruption matrix places its bit flips. The first five
 * sites only exist under the LP backend; runStoreWithFault() maps
 * them onto superblock faults for the eager and WAL backends (the
 * only media-protected structures those own), so the matrix stays
 * total over (site x backend).
 */
enum class FaultSite
{
    JournalPayload,     ///< one parity-covered sealed journal region
    JournalTail,        ///< sealed bytes past parity coverage (live head)
    JournalMultiRegion, ///< two regions of one parity group
    HeaderDigest,       ///< digest word of epoch 1's journal header
    ParityPage,         ///< a parity block itself (found by scrub)
    SuperblockPrimary,
    SuperblockReplica,
    SuperblockBoth,
};

/** One media-fault injection run (see runStoreWithFault). */
struct StoreFaultSpec
{
    std::size_t records = 256;   ///< key-space size of the op stream
    std::size_t preOps = 100;    ///< mutations before the fault
    std::size_t postOps = 256;   ///< mutations after repair
    double delFraction = 0.15;   ///< deletes among mutations
    std::uint64_t seed = 11;
    FaultSite site = FaultSite::JournalPayload;
};

struct StoreFaultOutcome
{
    FaultSite effectiveSite;     ///< after the non-LP mapping
    bool injected = false;       ///< the fault was actually placed
    bool viaScrub = false;       ///< found by online scrub, not recovery
    RecoveryReport report;       ///< zero-initialized on the scrub path

    /// Post-run media counters summed over shards.
    std::uint64_t mediaRepaired = 0;
    std::uint64_t mediaUnrepairable = 0;
    bool quarantined = false;    ///< any shard quarantined

    /**
     * Persistent map == golden replay of exactly the committed
     * epochs right after detection/repair (for a repaired fault that
     * is the FULL op stream -- zero data loss).
     */
    bool stateVerified = false;

    /** Full-range scan agreed with the same golden map. */
    bool scanStateVerified = false;

    /** After postOps more ops + checkpoint (skipped if quarantined). */
    bool finalStateVerified = false;
};

/**
 * The end-to-end media-fault story, one cell of the corruption
 * matrix: run a deterministic op stream, commit everything, durably
 * mark the store cleanly shut down (persistAll -- so the next
 * recovery runs STRICT), flip bits at @p site, then either restart +
 * recover (most sites) or run an online scrub pass (ParityPage,
 * which recovery cannot see: the journal itself still validates).
 * Verifies committed state, scans, quarantine behavior, and forward
 * progress after repair.
 */
StoreFaultOutcome runStoreWithFault(Backend b, const StoreConfig &scfg,
                                    const StoreFaultSpec &spec,
                                    const sim::MachineConfig &mcfg);

} // namespace lp::store

#endif // LP_STORE_DRIVER_HH
