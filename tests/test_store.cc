/**
 * @file
 * Unit and property tests for lp::store::KvStore: map semantics and
 * read-your-writes on every backend, golden-map equivalence after a
 * checkpoint, the SimEnv/NativeEnv identical-code guarantee, clean
 * recovery after a checkpoint, the journal's digest check on a bare
 * BatchJournal, recovery idempotence (including a crash injected
 * *during* recovery), the YCSB generators, the deterministic
 * simulator cost of lpbench's simulated phase, and the table
 * occupancy guard.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "kernels/env.hh"
#include "kernels/workload.hh"
#include "pmem/fault.hh"
#include "store/driver.hh"
#include "store/kv_store.hh"
#include "store/ycsb.hh"

namespace lp::store
{
namespace
{

sim::MachineConfig
smallMachine()
{
    sim::MachineConfig cfg;
    cfg.numCores = 1;
    cfg.l1 = {8 * 1024, 4, 2};
    cfg.l2 = {32 * 1024, 8, 11};  // small: force real evictions
    return cfg;
}

StoreConfig
smallConfig()
{
    StoreConfig cfg;
    cfg.capacity = 1024;
    cfg.shards = 2;
    cfg.batchOps = 8;
    cfg.foldBatches = 8;
    return cfg;
}

const Backend kBackends[] = {Backend::Lp, Backend::EagerPerOp,
                             Backend::Wal};

class StoreBackends : public ::testing::TestWithParam<Backend>
{
};

TEST_P(StoreBackends, PutGetDelSemantics)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    EXPECT_EQ(store.get(env, 42), std::nullopt);
    store.put(env, 42, 1);
    store.put(env, 99, 2);
    // Read-your-writes before any batch commits.
    EXPECT_EQ(store.get(env, 42), std::optional<std::uint64_t>(1));
    store.put(env, 42, 3);  // overwrite
    EXPECT_EQ(store.get(env, 42), std::optional<std::uint64_t>(3));
    store.del(env, 99);
    EXPECT_EQ(store.get(env, 99), std::nullopt);
    store.del(env, 12345);  // deleting an absent key is a no-op

    store.checkpoint(env);
    EXPECT_EQ(store.get(env, 42), std::optional<std::uint64_t>(3));
    EXPECT_EQ(store.get(env, 99), std::nullopt);
    EXPECT_EQ(store.liveKeys(), 1u);
}

TEST_P(StoreBackends, SnapshotMatchesGoldenAfterCheckpoint)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    std::map<std::uint64_t, std::uint64_t> golden;
    Rng rng(99);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = keyOfRecord(rng.below(400), 5);
        if (rng.chance(0.25)) {
            store.del(env, key);
            golden.erase(key);
        } else {
            store.put(env, key, i);
            golden[key] = i;
        }
    }
    store.checkpoint(env);
    EXPECT_EQ(store.snapshot(), golden);
    for (const auto &[k, v] : golden)
        EXPECT_EQ(store.get(env, k), std::optional<std::uint64_t>(v));
}

/**
 * The identical templated code must run under NativeEnv and produce
 * the same logical map as the simulated run.
 */
TEST_P(StoreBackends, NativeEnvRunsIdenticalCode)
{
    const StoreConfig scfg = smallConfig();

    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> simStore(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv simEnv(ctx.machine, ctx.arena, 0);

    pmem::PersistentArena nativeArena(storeArenaBytes(scfg));
    KvStore<kernels::NativeEnv> natStore(nativeArena, scfg, GetParam());
    nativeArena.persistAll();
    kernels::NativeEnv natEnv;

    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t key = keyOfRecord(rng.below(300), 11);
        if (rng.chance(0.2)) {
            simStore.del(simEnv, key);
            natStore.del(natEnv, key);
        } else {
            simStore.put(simEnv, key, i);
            natStore.put(natEnv, key, i);
        }
    }
    simStore.checkpoint(simEnv);
    natStore.checkpoint(natEnv);
    EXPECT_EQ(simStore.snapshot(), natStore.snapshot());
}

TEST_P(StoreBackends, NativeDriverVerifies)
{
    YcsbParams p;
    p.records = 512;
    p.ops = 2048;
    const auto out = runStoreNative(GetParam(), smallConfig(), p);
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.reads + out.mutations, p.ops);
}

/**
 * After a checkpoint every committed op is durable: a crash right
 * after it must recover to the identical map with nothing to replay.
 */
TEST_P(StoreBackends, RecoverAfterCheckpointFindsNothing)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, GetParam());
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    Rng rng(3);
    for (int i = 0; i < 1500; ++i)
        store.put(env, keyOfRecord(rng.below(200), 1), i);
    store.checkpoint(env);
    const auto before = store.snapshot();

    ctx.machine.loseVolatileState();
    ctx.arena.crashRestore();
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.batchesReplayed, 0u);
    EXPECT_EQ(rep.entriesReplayed, 0u);
    EXPECT_FALSE(rep.walUndone);
    EXPECT_EQ(store.snapshot(), before);

    // And the recovered store keeps working.
    store.put(env, keyOfRecord(0, 1), 0xabc);
    store.checkpoint(env);
    EXPECT_EQ(store.get(env, keyOfRecord(0, 1)),
              std::optional<std::uint64_t>(0xabc));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StoreBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto &info) {
                             return backendName(info.param);
                         });

/**
 * Recovery must be idempotent: running it again on the repaired image
 * finds nothing further and changes nothing.
 */
TEST(StoreRecovery, RecoverTwiceIsIdempotent)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0,
                        &ctx.crash);

    ctx.crash.armAfterStores(2500);
    Rng rng(17);
    bool crashed = false;
    try {
        for (int i = 0; i < 4000; ++i)
            store.put(env, keyOfRecord(rng.below(300), 2), i);
        store.checkpoint(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        crashed = true;
        ctx.crash.disarm();
        ctx.sched.clear();
        ctx.machine.loseVolatileState();
        ctx.arena.crashRestore();
    }
    ASSERT_TRUE(crashed);

    const RecoveryReport first = store.recover(env);
    const auto afterFirst = store.snapshot();

    // Recovery repaired with Eager Persistency, so a second crash
    // restore keeps its work; running recovery again is a no-op.
    ctx.machine.loseVolatileState();
    ctx.arena.crashRestore();
    const RecoveryReport second = store.recover(env);
    EXPECT_EQ(second.batchesReplayed, 0u);
    EXPECT_EQ(second.entriesReplayed, 0u);
    EXPECT_EQ(second.committedEpochs, first.committedEpochs);
    EXPECT_EQ(store.snapshot(), afterFirst);
}

/**
 * The header digest is what rejects a batch whose record tags all
 * check out: rot one value word in each of two journal regions of
 * the first batch (one XOR parity group cannot restore both), crash,
 * and recovery must discard that batch -- and everything after it --
 * instead of replaying the rotted values.
 */
TEST(StoreRecovery, DigestRejectsRecordsParityCannotRestore)
{
    StoreConfig scfg = smallConfig();
    scfg.shards = 1;
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0);

    for (std::uint64_t i = 0; i < 2 * std::uint64_t(scfg.batchOps); ++i)
        store.put(env, keyOfRecord(i, 3), 100 + i);
    store.commitBatches(env);
    ctx.arena.persistAll();

    // Entry 1 (bytes 24-47) and entry 4 (96-119) are records of
    // epoch 1; their value words sit in regions 0 and 1.
    pmem::FaultInjector inj(ctx.arena);
    const FaultSurface fs = store.faultSurface(0);
    inj.flipBitAt(fs.journal, 1 * sizeof(JEntry) + 16, 2);
    inj.flipBitAt(fs.journal, 4 * sizeof(JEntry) + 16, 2);

    ctx.sched.clear();
    ctx.machine.loseVolatileState();
    ctx.arena.crashRestore();
    const RecoveryReport rep = store.recover(env);
    EXPECT_EQ(rep.committedEpochs[0], 0u);
    EXPECT_EQ(rep.batchesReplayed, 0u);
    EXPECT_EQ(rep.batchesDiscarded, 1u);
    EXPECT_TRUE(store.snapshot().empty());
}

/**
 * The digest compare alone rejects a sealed batch whose record value
 * rotted with its tag intact when media repair changes nothing: every
 * record's tag still has the batch's shape, so only the header digest
 * can tell. (Through KvStore the end-of-journal parity sweep repairs
 * such a flip first; a bare journal has no parity.)
 */
TEST(StoreJournal, DigestRejectsRottedValueWithIntactTag)
{
    const StoreConfig scfg = smallConfig();
    pmem::PersistentArena arena(64 * 1024);
    BatchJournal<kernels::NativeEnv> j(arena, journalCapacity(scfg));
    kernels::NativeEnv env;
    core::ChecksumAcc acc(scfg.checksum);
    const std::uint64_t cost =
        core::ChecksumAcc::updateCost(scfg.checksum);
    j.open(env, 1, acc);
    for (std::uint64_t k = 1; k <= 3; ++k)
        j.append(env, JOp::Put, k, 100 + k, 1, acc, cost);
    j.seal(env, 3, 1, acc, cost);
    ASSERT_TRUE(j.auditCommitted(env, scfg, 0, 1));

    // Entry 2 is the second Put; flip one bit of its value word.
    auto *buf = static_cast<JEntry *>(const_cast<void *>(j.data()));
    buf[2].value ^= std::uint64_t{1} << 2;

    RecoveryReport rep;
    int applied = 0;
    int repairs = 0;
    const std::uint64_t last = j.replay(
        env, scfg, 0, [&](JEntry &) { ++applied; }, [] {},
        [&] {
            ++repairs;
            return false;
        },
        rep);
    EXPECT_EQ(last, 0u);
    EXPECT_EQ(rep.batchesDiscarded, 1u);
    EXPECT_EQ(rep.batchesReplayed, 0u);
    EXPECT_EQ(applied, 0);
    EXPECT_EQ(repairs, 1);
}

/**
 * A crash *during* recovery must be recoverable by simply running
 * recovery again (Section III-E: recovery uses Eager Persistency and
 * replay converges thanks to the single-copy probe invariant).
 */
TEST(StoreRecovery, CrashDuringRecoveryIsRecoverable)
{
    const StoreConfig scfg = smallConfig();
    kernels::SimContext ctx(smallMachine(), storeArenaBytes(scfg));
    KvStore<kernels::SimEnv> store(ctx.arena, scfg, Backend::Lp);
    ctx.arena.persistAll();
    kernels::SimEnv env(ctx.machine, ctx.arena, 0, &ctx.crash);

    // Deterministic op stream, recorded with predicted epochs so the
    // golden cut at any watermark is reproducible.
    struct OpRec
    {
        int shard;
        std::uint64_t epoch;
        std::uint64_t key;
        std::uint64_t value;
    };
    std::vector<OpRec> issued;
    std::vector<std::uint64_t> shardMuts(scfg.shards, 0);
    Rng rng(23);

    ctx.crash.armAfterStores(3000);
    bool crashed = false;
    try {
        for (int i = 0; i < 4000; ++i) {
            const std::uint64_t key = keyOfRecord(rng.below(300), 4);
            const int sh = store.shardOf(key);
            const std::uint64_t epoch =
                shardMuts[sh] / std::uint64_t(scfg.batchOps) + 1;
            ++shardMuts[sh];
            issued.push_back(
                OpRec{sh, epoch, key, std::uint64_t(i)});
            store.put(env, key, std::uint64_t(i));
        }
        store.checkpoint(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        crashed = true;
        ctx.crash.disarm();
        ctx.sched.clear();
        ctx.machine.loseVolatileState();
        ctx.arena.crashRestore();
    }
    ASSERT_TRUE(crashed);

    // Crash again partway through recovery itself.
    ctx.crash.armAfterStores(40);
    bool recoveryCrashed = false;
    try {
        store.recover(env);
        ctx.crash.disarm();
    } catch (const pmem::CrashException &) {
        recoveryCrashed = true;
        ctx.crash.disarm();
        ctx.sched.clear();
        ctx.machine.loseVolatileState();
        ctx.arena.crashRestore();
    }

    const RecoveryReport rep = store.recover(env);
    (void)recoveryCrashed;  // may or may not fire; both must verify

    std::map<std::uint64_t, std::uint64_t> golden;
    for (const OpRec &r : issued)
        if (r.epoch <= rep.committedEpochs[r.shard])
            golden[r.key] = r.value;
    EXPECT_EQ(store.snapshot(), golden);
}

TEST(StoreYcsb, KeyOfRecordIsInjective)
{
    std::unordered_map<std::uint64_t, std::size_t> seen;
    for (std::size_t id = 0; id < 10000; ++id) {
        const std::uint64_t k = keyOfRecord(id, 42);
        EXPECT_LE(k, maxUserKey);
        const auto [it, fresh] = seen.emplace(k, id);
        EXPECT_TRUE(fresh) << "collision between " << it->second
                           << " and " << id;
    }
}

TEST(StoreYcsb, ZipfianIsBoundedAndSkewed)
{
    ZipfianGen zipf(1000, 0.99);
    Rng rng(5);
    std::vector<std::uint64_t> counts(1000, 0);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t v = zipf.next(rng);
        ASSERT_LT(v, 1000u);
        ++counts[v];
    }
    // Rank 0 must dwarf the uniform expectation (50 per item).
    EXPECT_GT(counts[0], 2000u);
}

TEST(StoreYcsb, MixReadFractions)
{
    EXPECT_DOUBLE_EQ(readFraction(YcsbMix::A), 0.5);
    EXPECT_DOUBLE_EQ(readFraction(YcsbMix::B), 0.95);
    EXPECT_DOUBLE_EQ(readFraction(YcsbMix::C), 1.0);
    EXPECT_EQ(parseMix("a"), YcsbMix::A);
    EXPECT_EQ(parseMix("B"), YcsbMix::B);
}

TEST(StoreConfigTest, ParseBackendRoundTrips)
{
    for (Backend b : kBackends)
        EXPECT_EQ(parseBackend(backendName(b)), b);
}

/**
 * lpbench's simulated phase (LP, one shard, 32-op epochs folded every
 * 64, 16384 records, YCSB-A) on the paper's machine, shortened to
 * @p ops ops. The simulator is a pure function of its input, so these
 * numbers move only when the store's persistent writes or executed
 * work change.
 */
StoreRunResult
runLpbenchSimPhase(bool zipfian, int batchOps, int foldBatches,
                   std::uint64_t ops = 200000)
{
    StoreConfig scfg;
    scfg.capacity = 65536;
    scfg.shards = 1;
    scfg.batchOps = batchOps;
    scfg.foldBatches = foldBatches;
    YcsbParams p;
    p.records = 16384;
    p.ops = ops;
    p.mix = YcsbMix::A;
    p.zipfian = zipfian;
    sim::MachineConfig mcfg;  // bench::paperMachine(1)
    mcfg.numCores = 1;
    mcfg.l1 = {16 * 1024, 8, 2};
    mcfg.l2 = {128 * 1024, 8, 11};
    mcfg.nvmmReadNs = 150.0;
    mcfg.nvmmWriteNs = 300.0;
    return runStoreYcsb(Backend::Lp, scfg, p, mcfg);
}

/**
 * Gate on the deterministic simulator cost: NVMM writes per mutation
 * and simulated cycles within +-0.5% of the recorded values, per
 * epoch size B. B = 32 is lpbench's own phase at its 200k ops; the
 * one- and four-op epochs stress the commit path and run 50k ops to
 * keep the test short. A change that moves them must re-record them
 * here and say why in the BENCH files it regenerates.
 */
TEST(StoreSimCost, LpbenchPhaseWithinBand)
{
    struct Expect
    {
        bool zipfian;
        int batchOps;
        std::uint64_t ops;
        double writesPerMutation;
        double execCycles;
    };
    const Expect cases[] = {
        {true, 32, 200000, 0.87883, 42277253.0},
        {false, 32, 200000, 1.39065, 75825402.0},
        {true, 4, 50000, 1.155236, 12948998.0},
        {false, 4, 50000, 1.467218, 19532756.0},
        {true, 1, 50000, 1.602642, 17977891.0},
        {false, 1, 50000, 1.798536, 23479585.0},
    };
    for (const Expect &c : cases) {
        const StoreRunResult out =
            runLpbenchSimPhase(c.zipfian, c.batchOps, 64, c.ops);
        const std::string at =
            std::string(c.zipfian ? "zipf" : "uniform") +
            " B=" + std::to_string(c.batchOps);
        EXPECT_TRUE(out.verified) << at;
        EXPECT_NEAR(out.writesPerMutation, c.writesPerMutation,
                    0.005 * c.writesPerMutation)
            << at;
        EXPECT_NEAR(out.execCycles, c.execCycles, 0.005 * c.execCycles)
            << at;
    }
}

/**
 * One-op epochs with the fold window kept at 2048 mutations: an epoch
 * commit adds only its 24B journal header, so LP stays near eager's
 * one write per mutation even when every op commits alone.
 */
TEST(StoreSimCost, SingleOpEpochsCostAtMostFourteenTenths)
{
    const StoreRunResult out = runLpbenchSimPhase(true, 1, 2048);
    EXPECT_TRUE(out.verified);
    EXPECT_LE(out.writesPerMutation, 1.40);
}

TEST(StoreDeathTest, OverCapacityIsFatal)
{
    StoreConfig scfg;
    scfg.capacity = 8;  // floor-clamped to 64 slots; limit 7/8 = 56
    scfg.shards = 1;
    ASSERT_DEATH(
        {
            pmem::PersistentArena arena(storeArenaBytes(scfg));
            KvStore<kernels::NativeEnv> store(arena, scfg,
                                              Backend::EagerPerOp);
            arena.persistAll();
            kernels::NativeEnv env;
            for (std::uint64_t k = 1; k <= 60; ++k)
                store.put(env, k * 1000, k);
        },
        "load-factor");
}

} // namespace
} // namespace lp::store
