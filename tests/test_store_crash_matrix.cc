/**
 * @file
 * Crash matrix for the KV store: every backend is crashed after N
 * persistent stores AND after N region commits, for a sweep of N that
 * lands inside batch appends, digest commits, folds, WAL transactions
 * and (at small N, where little or nothing has drained to NVMM yet)
 * torn-slot and torn-journal states. After each crash the store must
 * recover to exactly the golden replay of its committed batches, and
 * after recovery it must keep serving a further workload correctly.
 * A one-op-epoch leg repeats the sweep for the batched backends with
 * each batch header sharing its line with the batch's only record.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "store/driver.hh"

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
    cfg.l2 = {32 * 1024, 8, 11};  // small: real evictions, torn lines
    return cfg;
}

StoreConfig
smallConfig()
{
    StoreConfig cfg;
    cfg.capacity = 1024;
    cfg.shards = 2;
    cfg.batchOps = 8;
    cfg.foldBatches = 8;  // fold every 64 mutations per shard
    return cfg;
}

using Combo = std::tuple<Backend, bool, std::uint64_t>;

/** Crash @p backend under @p scfg at @p point, recover and check. */
void
expectRecovers(Backend backend, const StoreConfig &scfg,
               bool byRegions, std::uint64_t point)
{
    StoreCrashSpec spec;
    spec.records = 256;
    spec.preOps = 1600;
    spec.postOps = 400;
    spec.delFraction = 0.2;
    spec.byRegions = byRegions;
    spec.point = point;
    spec.seed = 7 + point;

    const StoreCrashOutcome out =
        runStoreWithCrash(backend, scfg, spec, smallMachine());
    const std::string cell = backendName(backend) + " batchOps " +
                             std::to_string(scfg.batchOps) +
                             " crash point " + std::to_string(point) +
                             (byRegions ? " regions" : " stores");
    EXPECT_TRUE(out.committedStateVerified)
        << cell << ": recovered state != committed-batch replay";
    EXPECT_TRUE(out.finalStateVerified)
        << cell << ": store wrong after post-recovery workload";
    EXPECT_TRUE(out.scanStateVerified)
        << cell
        << ": full-range scan through the rebuilt index disagreed "
           "with point-GET recovery (torn epoch visible to SCAN?)";
}

class StoreCrashMatrix : public ::testing::TestWithParam<Combo>
{
};

TEST_P(StoreCrashMatrix, RecoversToCommittedPrefix)
{
    const auto [backend, byRegions, point] = GetParam();
    expectRecovers(backend, smallConfig(), byRegions, point);
}

/**
 * One-op epochs (LP and WAL; eager commits every op alone anyway).
 * An LP batch is then a 24B header plus one 24B record, so every
 * header's digest word shares a 64B line with (part of) its record,
 * and a torn line tears the digest together with the data it
 * covers. The fold window stays at 64 mutations per shard, as in
 * smallConfig().
 */
StoreConfig
singleOpConfig()
{
    StoreConfig cfg = smallConfig();
    cfg.batchOps = 1;
    cfg.foldBatches = 64;
    return cfg;
}

class StoreCrashMatrixSingleOp : public ::testing::TestWithParam<Combo>
{
};

TEST_P(StoreCrashMatrixSingleOp, RecoversToCommittedPrefix)
{
    const auto [backend, byRegions, point] = GetParam();
    expectRecovers(backend, singleOpConfig(), byRegions, point);
}

// Store-count crash points: early ones hit half-written slots and
// journal lines that never drained; late ones land inside folds and
// replay windows. 1600 mutations make roughly 5k-6k persistent
// stores on the lazy backend, so the largest points also cover "crash
// during the final checkpoint".
const std::uint64_t kStorePoints[] = {1,   2,   3,    5,    9,
                                      17,  33,  65,   129,  257,
                                      700, 1500, 2900, 4400};

// Region-commit crash points: 1600 mutations over 2 shards commit
// ~200 batches on the batched backends (the eager backend counts
// every op as a region, so the same points land mid-stream there).
const std::uint64_t kRegionPoints[] = {1,  2,  3,  5,   9,
                                       20, 45, 90, 140, 190};

INSTANTIATE_TEST_SUITE_P(
    AfterNStores, StoreCrashMatrix,
    ::testing::Combine(::testing::Values(Backend::Lp,
                                         Backend::EagerPerOp,
                                         Backend::Wal),
                       ::testing::Values(false),
                       ::testing::ValuesIn(kStorePoints)),
    [](const auto &info) {
        return backendName(std::get<0>(info.param)) + "_stores_" +
               std::to_string(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    AfterNRegions, StoreCrashMatrix,
    ::testing::Combine(::testing::Values(Backend::Lp,
                                         Backend::EagerPerOp,
                                         Backend::Wal),
                       ::testing::Values(true),
                       ::testing::ValuesIn(kRegionPoints)),
    [](const auto &info) {
        return backendName(std::get<0>(info.param)) + "_regions_" +
               std::to_string(std::get<2>(info.param));
    });

// One-op epochs commit a region per mutation: 1600 of them, folding
// every 64 per shard, so these land in early batches, around the
// first folds (~128), and deep into the run.
const std::uint64_t kSingleOpRegionPoints[] = {1,   2,   3,   5,   9,
                                               33,  64,  65,  127, 129,
                                               257, 700, 1500};

INSTANTIATE_TEST_SUITE_P(
    AfterNStores, StoreCrashMatrixSingleOp,
    ::testing::Combine(::testing::Values(Backend::Lp, Backend::Wal),
                       ::testing::Values(false),
                       ::testing::ValuesIn(kStorePoints)),
    [](const auto &info) {
        return backendName(std::get<0>(info.param)) + "_b1_stores_" +
               std::to_string(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    AfterNRegions, StoreCrashMatrixSingleOp,
    ::testing::Combine(::testing::Values(Backend::Lp, Backend::Wal),
                       ::testing::Values(true),
                       ::testing::ValuesIn(kSingleOpRegionPoints)),
    [](const auto &info) {
        return backendName(std::get<0>(info.param)) + "_b1_regions_" +
               std::to_string(std::get<2>(info.param));
    });

/**
 * Torn-write sweep: the crash additionally XOR-corrupts the last N
 * bytes of shard 0's sealed journal prefix -- a partial-page device
 * write dying with the machine, not a clean truncation. Recovery
 * must either parity-repair the torn region (when the XOR group
 * still has one clean reconstruction) or cleanly discard the
 * affected epochs; runStoreWithCrash verifies the result against
 * the golden replay of exactly what recovery reported committed, so
 * serving a torn batch fails the test either way.
 */
using TornCombo = std::tuple<std::uint64_t, std::size_t>;

class StoreTornWriteMatrix : public ::testing::TestWithParam<TornCombo>
{
};

TEST_P(StoreTornWriteMatrix, TornJournalRepairsOrDiscards)
{
    const auto [point, tornBytes] = GetParam();

    StoreCrashSpec spec;
    spec.records = 256;
    spec.preOps = 1600;
    spec.postOps = 400;
    spec.delFraction = 0.2;
    spec.byRegions = true;  // tear right after an epoch commit
    spec.point = point;
    spec.seed = 31 + point;
    spec.tornBytes = tornBytes;

    const StoreCrashOutcome out = runStoreWithCrash(
        Backend::Lp, smallConfig(), spec, smallMachine());
    EXPECT_TRUE(out.committedStateVerified)
        << "torn " << tornBytes << "B at region point " << point
        << ": recovered state != committed-batch replay "
           "(torn epoch served?)";
    EXPECT_TRUE(out.scanStateVerified)
        << "torn " << tornBytes << "B at region point " << point
        << ": scan observed a torn epoch";
    EXPECT_TRUE(out.finalStateVerified)
        << "torn " << tornBytes << "B at region point " << point
        << ": store wrong after post-recovery workload";
}

// Tear sizes: sub-region (parity can fully reconstruct one dirty
// region), exactly one region, and multi-region tears that force
// epoch discard when two regions of a parity group rot together.
const std::size_t kTornBytes[] = {8, 64, 96, 200};
const std::uint64_t kTornPoints[] = {2, 9, 45, 140};

INSTANTIATE_TEST_SUITE_P(
    TornWrites, StoreTornWriteMatrix,
    ::testing::Combine(::testing::ValuesIn(kTornPoints),
                       ::testing::ValuesIn(kTornBytes)),
    [](const auto &info) {
        return "lp_regions_" + std::to_string(std::get<0>(info.param)) +
               "_torn_" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace lp::store
