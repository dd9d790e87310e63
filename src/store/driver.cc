#include "store/driver.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "obs/flight.hh"
#include "pmem/crash.hh"
#include "pmem/fault.hh"
#include "repair/repair.hh"

namespace lp::store
{

namespace
{

/**
 * Flight-recorder slots every driver run carves out of its arena
 * (first allocation, per the postmortem placement contract). The
 * recorder stays ON in every bench so the published numbers carry
 * its cost; its stores are host-side, so the simulated tiers see
 * zero cycles and the native tier pays the true overhead.
 */
constexpr std::uint32_t kFlightEvents = 4096;

/**
 * Tee every shard ring of @p store into @p flight. The driver is
 * single-threaded (one owner for all shards), so sharing one
 * FlightRing across the shard rings respects its single-writer
 * contract.
 */
template <typename Env>
void
attachFlightSink(KvStore<Env> &store, obs::FlightRing &flight)
{
    for (int s = 0; s < store.config().shards; ++s)
        if (obs::TraceRing *r = store.shard(s).obs().ring)
            r->attachSink(&flight);
}

/** Compare the store's persistent map against a golden map. */
bool
mapsEqual(const std::map<std::uint64_t, std::uint64_t> &snap,
          const std::unordered_map<std::uint64_t, std::uint64_t> &golden)
{
    if (snap.size() != golden.size())
        return false;
    for (const auto &[k, v] : golden) {
        const auto it = snap.find(k);
        if (it == snap.end() || it->second != v)
            return false;
    }
    return true;
}

/** Commit-pipeline counters summed over every shard (host-side). */
template <typename Env>
engine::PipelineCounters
sumPipelineCounters(const KvStore<Env> &store)
{
    engine::PipelineCounters sum;
    for (int s = 0; s < store.config().shards; ++s) {
        const engine::PipelineCounters &c =
            store.shard(s).pipeline().counters();
        sum.opsStaged += c.opsStaged;
        sum.epochsCommitted += c.epochsCommitted;
        sum.folds += c.folds;
    }
    return sum;
}

} // namespace

StoreRunResult
runStoreYcsb(Backend b, const StoreConfig &scfg, const YcsbParams &p,
             const sim::MachineConfig &mcfg,
             obs::TraceCollector *trace)
{
    kernels::SimContext ctx(mcfg,
                            obs::FlightRing::bytesFor(kFlightEvents) +
                                storeArenaBytes(scfg));
    obs::FlightRing flight(ctx.arena, kFlightEvents, 0);
    obs::TraceCollector localTrace;
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, b);
    attachStoreTrace(store, trace ? trace : &localTrace);
    attachFlightSink(store, flight);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    std::unordered_map<std::uint64_t, std::uint64_t> golden;
    ycsbLoad(env, store, p, &golden);
    flight.seal();

    StoreRunResult out;
    out.loadStats = ctx.machine.snapshot();
    out.loadWritesPerRecord =
        p.records == 0 ? 0.0
                       : out.loadStats.at("nvmm_writes") /
                             double(p.records);
    ctx.machine.resetStats();
    const engine::PipelineCounters loadCtrs =
        sumPipelineCounters(store);

    const MixCounts c = ycsbMix(env, store, p, &golden);
    flight.seal();

    const engine::PipelineCounters mixCtrs = sumPipelineCounters(store);
    out.opsStaged = mixCtrs.opsStaged - loadCtrs.opsStaged;
    out.epochsCommitted =
        mixCtrs.epochsCommitted - loadCtrs.epochsCommitted;
    out.folds = mixCtrs.folds - loadCtrs.folds;

    out.stats = ctx.machine.snapshot();
    out.execCycles = out.stats.at("exec_cycles");
    out.nvmmWrites =
        static_cast<std::uint64_t>(out.stats.at("nvmm_writes"));
    out.reads = c.reads;
    out.mutations = c.mutations;
    out.scans = c.scans;
    out.scanned = c.scanned;
    out.writesPerMutation =
        c.mutations == 0
            ? 0.0
            : double(out.nvmmWrites) / double(c.mutations);
    const double seconds =
        out.execCycles / (mcfg.clockGhz * 1e9);
    out.opsPerSec = seconds == 0.0 ? 0.0 : double(p.ops) / seconds;
    out.verified =
        mapsEqual(store.snapshot(), golden) && c.scanErrors == 0;
    return out;
}

NativeRunResult
runStoreNative(Backend b, const StoreConfig &scfg, const YcsbParams &p,
               obs::TraceCollector *trace)
{
    pmem::PersistentArena arena(
        obs::FlightRing::bytesFor(kFlightEvents) +
        storeArenaBytes(scfg));
    obs::FlightRing flight(arena, kFlightEvents, 0);
    obs::TraceCollector localTrace;
    KvStore<kernels::NativeEnv> store(arena, scfg, b);
    attachStoreTrace(store, trace ? trace : &localTrace);
    attachFlightSink(store, flight);
    arena.persistAll();
    kernels::NativeEnv env;

    std::unordered_map<std::uint64_t, std::uint64_t> golden;
    const auto t0 = std::chrono::steady_clock::now();
    ycsbLoad(env, store, p, &golden);
    const MixCounts c = ycsbMix(env, store, p, &golden);
    const auto t1 = std::chrono::steady_clock::now();
    flight.seal();

    NativeRunResult out;
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.reads = c.reads;
    out.mutations = c.mutations;
    out.scans = c.scans;
    out.verified =
        mapsEqual(store.snapshot(), golden) && c.scanErrors == 0;

    obs::Histogram stage, commit, fold, scan, scanLen;
    for (int s = 0; s < scfg.shards; ++s) {
        const obs::ShardObs &ob = store.shard(s).obs();
        stage.merge(ob.stageNs);
        commit.merge(ob.commitNs);
        fold.merge(ob.foldNs);
        scan.merge(ob.scanNs);
        scanLen.merge(ob.scanLen);
    }
    out.stageLat = stage.summary();
    out.commitLat = commit.summary();
    out.foldLat = fold.summary();
    out.scanLat = scan.summary();
    out.scanLen = scanLen.summary();
    return out;
}

StoreCrashOutcome
runStoreWithCrash(Backend b, const StoreConfig &scfg,
                  const StoreCrashSpec &spec,
                  const sim::MachineConfig &mcfg,
                  obs::TraceCollector *trace)
{
    using kernels::SimEnv;

    kernels::SimContext ctx(mcfg,
                            obs::FlightRing::bytesFor(kFlightEvents) +
                                storeArenaBytes(scfg));
    obs::FlightRing flight(ctx.arena, kFlightEvents, 0);
    obs::TraceCollector localTrace;
    KvStore<SimEnv> store(ctx.arena, scfg, b);
    attachStoreTrace(store, trace ? trace : &localTrace);
    attachFlightSink(store, flight);
    ctx.arena.persistAll();
    SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);

    /**
     * Every mutation is recorded BEFORE it executes, tagged with the
     * epoch it must land in. Epoch assignment is deterministic --
     * batches close after exactly batchOps mutations -- so even an op
     * interrupted mid-execution (whose put() never returned, but
     * whose batch may still have committed) carries the right tag.
     */
    struct OpRec
    {
        int shard;
        std::uint64_t epoch;
        bool isPut;
        std::uint64_t key;
        std::uint64_t value;
    };
    std::vector<OpRec> issued;
    std::vector<std::uint64_t> shardMuts(scfg.shards, 0);
    Rng rng(spec.seed);

    auto issueOne = [&](std::size_t i) {
        const std::uint64_t key =
            keyOfRecord(rng.below(spec.records), spec.seed);
        const bool isPut = !rng.chance(spec.delFraction);
        const std::uint64_t value = 0x1000 + i;
        const int sh = store.shardOf(key);
        const std::uint64_t epoch =
            shardMuts[sh] / std::uint64_t(scfg.batchOps) + 1;
        ++shardMuts[sh];
        issued.push_back(OpRec{sh, epoch, isPut, key, value});
        if (isPut)
            store.put(env, key, value);
        else
            store.del(env, key);
    };

    // Golden replay of @p ops; with @p cut, only ops at or below
    // their shard's epoch watermark.
    auto replay = [](const std::vector<OpRec> &ops,
                     const std::vector<std::uint64_t> *cut) {
        std::map<std::uint64_t, std::uint64_t> m;
        for (const OpRec &r : ops) {
            if (cut && r.epoch > (*cut)[r.shard])
                continue;
            if (r.isPut)
                m[r.key] = r.value;
            else
                m.erase(r.key);
        }
        return m;
    };

    // A full-range scan through the rebuilt index must agree
    // byte-for-byte with the golden map: same keys, same values,
    // ascending, nothing extra. The limit overshoots the expected
    // size so truncation can never mask a surplus entry.
    auto scanMatches =
        [&](const std::map<std::uint64_t, std::uint64_t> &want) {
            const auto got = store.scan(env, 0, want.size() + 16);
            if (got.size() != want.size())
                return false;
            auto it = want.begin();
            for (const auto &[k, v] : got) {
                if (k != it->first || v != it->second)
                    return false;
                ++it;
            }
            return true;
        };

    StoreCrashOutcome out;
    if (spec.byRegions)
        ctx.crash.armAfterRegions(spec.point);
    else
        ctx.crash.armAfterStores(spec.point);

    try {
        for (std::size_t i = 0; i < spec.preOps; ++i)
            issueOne(i);
        store.checkpoint(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        out.crashed = true;
        ctx.crash.disarm();
        ctx.sched.clear();
        ctx.machine.loseVolatileState();
        ctx.arena.crashRestore();
        obs::traceInstant(store.shard(0).obs().ring, "crash",
                          spec.point);
        // Torn-write injection: the dying device shredded a partial
        // page at the end of shard 0's sealed journal prefix.
        // Recovery must parity-repair the tear or cleanly discard
        // the affected epochs; the committed-prefix checks below
        // hold either way because they trust the recovery report.
        if (spec.tornBytes > 0) {
            const FaultSurface fs = store.shard(0).faultSurface();
            if (fs.journal != nullptr && fs.sealedBytes > 0) {
                pmem::FaultInjector inj(ctx.arena);
                const std::size_t n =
                    std::min(spec.tornBytes, fs.sealedBytes);
                inj.corruptRange(
                    static_cast<const std::uint8_t *>(fs.journal) +
                        (fs.sealedBytes - n),
                    n, spec.seed);
            }
        }
        out.report = store.recover(env);

        if (b == Backend::EagerPerOp) {
            // Completed ops are all durable; the one in-flight op is
            // slot-atomic, so it either became fully visible or not.
            const auto snap = store.snapshot();
            if (snap == replay(issued, nullptr)) {
                out.committedStateVerified = true;
            } else {
                std::vector<OpRec> done(
                    issued.begin(),
                    issued.empty() ? issued.end() : issued.end() - 1);
                if (snap == replay(done, nullptr)) {
                    out.committedStateVerified = true;
                    issued = std::move(done);
                }
            }
        } else {
            out.committedStateVerified =
                store.snapshot() ==
                replay(issued, &out.report.committedEpochs);
            // Keep only the committed ops and rebase the epoch
            // prediction: post-recovery batches restart at the
            // watermark regardless of how full the last one was.
            std::vector<OpRec> keep;
            for (const OpRec &r : issued)
                if (r.epoch <= out.report.committedEpochs[r.shard])
                    keep.push_back(r);
            issued = std::move(keep);
            for (int s = 0; s < scfg.shards; ++s) {
                shardMuts[s] = out.report.committedEpochs[s] *
                               std::uint64_t(scfg.batchOps);
            }
        }
        // Right after recovery, a scan over the rebuilt index must
        // observe exactly the committed prefix -- never a torn epoch.
        // (issued has been trimmed to the committed ops above, so a
        // plain replay is the committed map.)
        out.scanStateVerified = scanMatches(replay(issued, nullptr));
    }
    if (!out.crashed) {
        out.committedStateVerified = true;  // nothing to check
        out.scanStateVerified = true;
    }

    // Forward progress: the recovered store must keep working.
    for (std::size_t j = 0; j < spec.postOps; ++j)
        issueOne(spec.preOps + j);
    store.checkpoint(env);
    flight.seal();
    out.finalStateVerified = store.snapshot() == replay(issued, nullptr);
    out.scanStateVerified =
        out.scanStateVerified && scanMatches(replay(issued, nullptr));
    return out;
}

StoreFaultOutcome
runStoreWithFault(Backend b, const StoreConfig &scfg,
                  const StoreFaultSpec &spec,
                  const sim::MachineConfig &mcfg)
{
    using kernels::SimEnv;

    // The eager and WAL backends own no journal or parity; their
    // media-protected structure is the superblock pair, so the
    // LP-specific sites degrade onto it -- keeping the matrix total.
    FaultSite site = spec.site;
    if (b != Backend::Lp) {
        switch (site) {
          case FaultSite::JournalPayload:
          case FaultSite::HeaderDigest:
            site = FaultSite::SuperblockPrimary;
            break;
          case FaultSite::JournalTail:
          case FaultSite::ParityPage:
            site = FaultSite::SuperblockReplica;
            break;
          case FaultSite::JournalMultiRegion:
            site = FaultSite::SuperblockBoth;
            break;
          default:
            break;
        }
    }

    kernels::SimContext ctx(mcfg,
                            obs::FlightRing::bytesFor(kFlightEvents) +
                                storeArenaBytes(scfg));
    obs::FlightRing flight(ctx.arena, kFlightEvents, 0);
    obs::TraceCollector localTrace;
    KvStore<SimEnv> store(ctx.arena, scfg, b);
    attachStoreTrace(store, &localTrace);
    attachFlightSink(store, flight);
    ctx.arena.persistAll();
    SimEnv env(ctx.machine, ctx.arena, 0);

    // Same op bookkeeping as runStoreWithCrash: every op is tagged
    // with the (deterministic) epoch it lands in, so LP outcomes can
    // be checked against exactly the committed prefix.
    struct OpRec
    {
        int shard;
        std::uint64_t epoch;
        bool isPut;
        std::uint64_t key;
        std::uint64_t value;
    };
    std::vector<OpRec> issued;
    std::vector<std::uint64_t> shardMuts(scfg.shards, 0);
    Rng rng(spec.seed);

    auto issueOne = [&](std::size_t i) {
        const std::uint64_t key =
            keyOfRecord(rng.below(spec.records), spec.seed);
        const bool isPut = !rng.chance(spec.delFraction);
        const std::uint64_t value = 0x2000 + i;
        const int sh = store.shardOf(key);
        const std::uint64_t epoch =
            shardMuts[sh] / std::uint64_t(scfg.batchOps) + 1;
        ++shardMuts[sh];
        issued.push_back(OpRec{sh, epoch, isPut, key, value});
        if (isPut)
            store.put(env, key, value);
        else
            store.del(env, key);
    };

    auto replay = [](const std::vector<OpRec> &ops,
                     const std::vector<std::uint64_t> *cut) {
        std::map<std::uint64_t, std::uint64_t> m;
        for (const OpRec &r : ops) {
            if (cut && r.epoch > (*cut)[std::size_t(r.shard)])
                continue;
            if (r.isPut)
                m[r.key] = r.value;
            else
                m.erase(r.key);
        }
        return m;
    };

    auto scanMatches =
        [&](const std::map<std::uint64_t, std::uint64_t> &want) {
            const auto got = store.scan(env, 0, want.size() + 16);
            if (got.size() != want.size())
                return false;
            auto it = want.begin();
            for (const auto &[k, v] : got) {
                if (k != it->first || v != it->second)
                    return false;
                ++it;
            }
            return true;
        };

    for (std::size_t i = 0; i < spec.preOps; ++i)
        issueOne(i);

    // Clean shutdown WITHOUT a fold: commit every batch, durably mark
    // the shards clean, drain everything. The journal still carries
    // the whole stream, so journal-site faults have teeth, and the
    // clean flag makes the coming recovery STRICT.
    store.commitBatches(env);
    store.markClean(env);
    ctx.arena.persistAll();

    StoreFaultOutcome out;
    out.effectiveSite = site;
    out.viaScrub = site == FaultSite::ParityPage;

    pmem::FaultInjector inj(ctx.arena);
    const FaultSurface fs = store.shard(0).faultSurface();
    const std::size_t coveredBytes =
        fs.sealedBytes / repair::regionBytes * repair::regionBytes;
    switch (site) {
      case FaultSite::JournalPayload:
        // Byte 9 of region 0: epoch 1's batch-header count word.
        if (coveredBytes >= repair::regionBytes) {
            inj.flipBitAt(fs.journal, 9, 3);
            out.injected = true;
        }
        break;
      case FaultSite::JournalTail:
        // First sealed byte past parity coverage: detectable by the
        // digest, unrepairable by parity -- the epoch is LOST, which
        // strict recovery must refuse to paper over.
        if (fs.sealedBytes > coveredBytes) {
            inj.flipBitAt(fs.journal, coveredBytes, 4);
            out.injected = true;
        }
        break;
      case FaultSite::JournalMultiRegion:
        // Two rotted regions in one 8-region parity group: XOR
        // parity reconstructs at most one.
        if (coveredBytes >= 2 * repair::regionBytes) {
            inj.flipBitAt(fs.journal, 1, 2);
            inj.flipBitAt(fs.journal, repair::regionBytes + 1, 2);
            out.injected = true;
        }
        break;
      case FaultSite::HeaderDigest:
        // Byte 16 of region 0: epoch 1's batch-header digest word.
        // Parity must restore it, or the batch would look torn.
        if (coveredBytes >= repair::regionBytes) {
            inj.flipBitAt(fs.journal, 16, 5);
            out.injected = true;
        }
        break;
      case FaultSite::ParityPage:
        if (fs.parityBytes > 0 &&
            coveredBytes >= repair::regionBytes) {
            inj.flipBitAt(fs.parity, 3, 2);
            out.injected = true;
        }
        break;
      case FaultSite::SuperblockPrimary:
        inj.flipBitAt(fs.metaPrimary, 0, 1);
        out.injected = true;
        break;
      case FaultSite::SuperblockReplica:
        inj.flipBitAt(fs.metaReplica, 0, 1);
        out.injected = true;
        break;
      case FaultSite::SuperblockBoth:
        inj.flipBitAt(fs.metaPrimary, 0, 1);
        inj.flipBitAt(fs.metaReplica, 0, 6);
        out.injected = true;
        break;
    }

    if (out.viaScrub) {
        // The journal still validates, so recovery would
        // never look at the parity blocks; the online scrub is what
        // finds and rewrites them. Walk one full pass.
        while (store.shard(0).scrubStep(env, 64) > 0) {
        }
    } else {
        // Restart: volatile state dies, recovery sees the durable
        // image -- clean-shutdown flag set, bits flipped.
        ctx.sched.clear();
        ctx.machine.loseVolatileState();
        ctx.arena.crashRestore();
        out.report = store.recover(env);
    }

    for (int s = 0; s < scfg.shards; ++s) {
        const Shard<SimEnv> &sh = store.shard(s);
        const MediaCounters &mc = sh.mediaCounters();
        out.mediaRepaired +=
            mc.repaired.load(std::memory_order_relaxed);
        out.mediaUnrepairable +=
            mc.unrepairable.load(std::memory_order_relaxed);
        out.quarantined = out.quarantined || sh.quarantined();
    }

    // Golden comparison. LP gates data on committed epochs (after a
    // recovery they are the report's watermarks; on the scrub path
    // nothing was discarded). Eager/WAL tables are never discarded
    // at all -- even a superblock-dead quarantine keeps every op.
    if (b == Backend::Lp && !out.viaScrub) {
        std::vector<OpRec> keep;
        for (const OpRec &r : issued)
            if (r.epoch <=
                out.report.committedEpochs[std::size_t(r.shard)])
                keep.push_back(r);
        issued = std::move(keep);
        for (int s = 0; s < scfg.shards; ++s)
            shardMuts[std::size_t(s)] =
                out.report.committedEpochs[std::size_t(s)] *
                std::uint64_t(scfg.batchOps);
    }
    const auto golden = replay(issued, nullptr);
    out.stateVerified = store.snapshot() == golden;
    out.scanStateVerified = scanMatches(golden);

    if (out.quarantined) {
        // No forward progress on a quarantined shard; the state
        // checks above are the final word.
        out.finalStateVerified = out.stateVerified;
        return out;
    }
    for (std::size_t j = 0; j < spec.postOps; ++j)
        issueOne(spec.preOps + j);
    store.checkpoint(env);
    flight.seal();
    out.finalStateVerified =
        store.snapshot() == replay(issued, nullptr);
    out.scanStateVerified =
        out.scanStateVerified && scanMatches(replay(issued, nullptr));
    return out;
}

} // namespace lp::store
