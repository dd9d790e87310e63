/**
 * @file
 * Unit tests for lp::engine::CommitPipeline: epoch sequencing, the
 * underfilled-batch flush, fold-period accounting, the commit
 * trigger decision (queue drained, deadline, and how both interact
 * with a full batch), and the commit_batch_ops histogram. The
 * pipeline never reads a clock itself, so the deadline tests drive
 * it with synthetic time points.
 */

#include <chrono>

#include <gtest/gtest.h>

#include "engine/commit_pipeline.hh"
#include "engine/stat_names.hh"
#include "obs/shard_obs.hh"

using lp::engine::CommitPipeline;
using lp::engine::CommitPolicy;
using lp::engine::CommitTrigger;

namespace
{

CommitPolicy
policyOf(int batchOps, int foldBatches, int deadlineUs = 2000)
{
    CommitPolicy p;
    p.batchOps = batchOps;
    p.foldBatches = foldBatches;
    p.flushDeadline = std::chrono::microseconds(deadlineUs);
    return p;
}

TEST(CommitPipeline, OpenEpochIsAlwaysLastCommittedPlusOne)
{
    CommitPipeline pl(policyOf(4, 8));
    EXPECT_FALSE(pl.epochOpen());
    EXPECT_EQ(pl.lastCommitted(), 0u);

    EXPECT_EQ(pl.beginEpoch(), 1u);
    EXPECT_TRUE(pl.epochOpen());
    EXPECT_EQ(pl.openEpoch(), 1u);

    for (int i = 0; i < 4; ++i)
        pl.stageOp();
    EXPECT_TRUE(pl.commitEpoch());
    EXPECT_EQ(pl.lastCommitted(), 1u);
    EXPECT_EQ(pl.beginEpoch(), 2u);
}

TEST(CommitPipeline, StageOpSignalsFullBatchExactlyAtBatchOps)
{
    CommitPipeline pl(policyOf(3, 8));
    pl.beginEpoch();
    EXPECT_FALSE(pl.stageOp());
    EXPECT_FALSE(pl.stageOp());
    EXPECT_TRUE(pl.stageOp());  // third op fills the batch
    EXPECT_EQ(pl.stagedOps(), 3);
}

TEST(CommitPipeline, UnderfilledBatchStillCommits)
{
    CommitPipeline pl(policyOf(32, 8));
    pl.beginEpoch();
    pl.stageOp();  // 1 of 32
    EXPECT_TRUE(pl.commitEpoch());
    EXPECT_EQ(pl.lastCommitted(), 1u);
    EXPECT_EQ(pl.stagedOps(), 0);
    EXPECT_FALSE(pl.epochOpen());

    // With nothing open, commitEpoch is a no-op and says so.
    EXPECT_FALSE(pl.commitEpoch());
    EXPECT_EQ(pl.lastCommitted(), 1u);
}

TEST(CommitPipeline, FoldDueAfterExactlyFoldBatchesCommits)
{
    CommitPipeline pl(policyOf(1, 3));
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(pl.foldDue());
        pl.beginEpoch();
        pl.stageOp();
        pl.commitEpoch();
    }
    EXPECT_TRUE(pl.foldDue());
    EXPECT_EQ(pl.committedSinceFold(), 3);

    pl.noteFold();
    EXPECT_FALSE(pl.foldDue());
    EXPECT_EQ(pl.committedSinceFold(), 0);
    EXPECT_EQ(pl.foldedEpoch(), 3u);
    EXPECT_EQ(pl.counters().folds, 1u);
}

TEST(CommitPipeline, FoldPeriodScalesWithPolicy)
{
    // Doubling foldBatches halves the fold count over the same run.
    for (const int foldBatches : {2, 4}) {
        CommitPipeline pl(policyOf(1, foldBatches));
        int folds = 0;
        for (int i = 0; i < 8; ++i) {
            pl.beginEpoch();
            pl.stageOp();
            pl.commitEpoch();
            if (pl.foldDue()) {
                pl.noteFold();
                ++folds;
            }
        }
        EXPECT_EQ(folds, 8 / foldBatches);
    }
}

TEST(CommitPipeline, SyncDurableAdvancesWatermarkWithoutAFold)
{
    CommitPipeline pl(policyOf(1, 2));
    pl.beginEpoch();
    pl.stageOp();
    pl.commitEpoch();
    pl.syncDurable();
    EXPECT_EQ(pl.foldedEpoch(), 1u);
    EXPECT_FALSE(pl.foldDue());
    EXPECT_EQ(pl.counters().folds, 0u);
}

TEST(CommitPipeline, EagerStylePolicyMakesEveryOpAnEpoch)
{
    // The eager backend runs batchOps = 1: the epoch number doubles
    // as a per-shard op sequence number.
    CommitPipeline pl(policyOf(1, 64));
    for (std::uint64_t i = 1; i <= 5; ++i) {
        EXPECT_EQ(pl.beginEpoch(), i);
        EXPECT_TRUE(pl.stageOp());
        pl.commitEpoch();
        pl.syncDurable();
        EXPECT_EQ(pl.lastCommitted(), i);
    }
    EXPECT_EQ(pl.counters().epochsCommitted, 5u);
    EXPECT_EQ(pl.counters().opsStaged, 5u);
}

TEST(CommitPipeline, DeadlineBoundsTheOldestPendingAck)
{
    using Clock = CommitPipeline::Clock;
    CommitPipeline pl(policyOf(32, 8, 2000));
    const Clock::time_point t0{};

    // Nothing pending: no trigger, drained or not.
    EXPECT_EQ(pl.commitTrigger(t0, false), CommitTrigger::None);
    EXPECT_EQ(pl.commitTrigger(t0, true), CommitTrigger::None);

    pl.beginEpoch();
    pl.stageOp();
    pl.notePending(1, t0);
    pl.stageOp();
    pl.notePending(1, t0 + std::chrono::microseconds(500));
    EXPECT_EQ(pl.pendingCount(), 2u);

    // The deadline runs from the OLDEST pending ack.
    EXPECT_EQ(pl.commitTrigger(t0 + std::chrono::microseconds(1999),
                               false),
              CommitTrigger::None);
    EXPECT_EQ(pl.commitTrigger(t0 + std::chrono::microseconds(2000),
                               false),
              CommitTrigger::Deadline);

    pl.noteDeadlineCommit();
    EXPECT_EQ(pl.counters().deadlineCommits, 1u);
}

TEST(CommitPipeline, DrainedQueueCommitsPendingAcks)
{
    using Clock = CommitPipeline::Clock;
    CommitPipeline pl(policyOf(32, 8, 2000));
    const Clock::time_point t0{};
    pl.beginEpoch();
    pl.stageOp();
    pl.notePending(1, t0);

    // A busy queue keeps batching; a drained one commits at once,
    // long before the deadline.
    EXPECT_EQ(pl.commitTrigger(t0, false), CommitTrigger::None);
    EXPECT_EQ(pl.commitTrigger(t0, true), CommitTrigger::Drained);

    // Past the deadline, the backstop names itself whether or not
    // the queue drained.
    const auto late = t0 + std::chrono::microseconds(2000);
    EXPECT_EQ(pl.commitTrigger(late, false), CommitTrigger::Deadline);
    EXPECT_EQ(pl.commitTrigger(late, true), CommitTrigger::Deadline);

    // Once the epoch committed and its acks were released, nothing
    // is left to trigger.
    EXPECT_TRUE(pl.commitEpoch());
    EXPECT_EQ(pl.releaseUpTo(pl.lastCommitted()), 1u);
    EXPECT_EQ(pl.commitTrigger(late, true), CommitTrigger::None);
}

TEST(CommitPipeline, FullBatchAcksNeedNoTrigger)
{
    using Clock = CommitPipeline::Clock;
    CommitPipeline pl(policyOf(2, 8, 2000));
    const Clock::time_point t0{};
    const auto us = [](int n) { return std::chrono::microseconds(n); };

    // Epoch 1 fills and commits inside the round (stageOp() says
    // full); its acks only await release, so even a drained queue
    // past their deadline asks for no commit.
    pl.beginEpoch();
    pl.stageOp();
    pl.notePending(1, t0);
    EXPECT_TRUE(pl.stageOp());
    pl.notePending(1, t0);
    EXPECT_TRUE(pl.commitEpoch());
    EXPECT_EQ(pl.commitTrigger(t0 + us(5000), true),
              CommitTrigger::None);

    // Epoch 2 opens behind the unreleased acks of epoch 1. The
    // deadline counts from epoch 2's own oldest ack, not from the
    // committed ones still at the front of the queue.
    pl.beginEpoch();
    pl.stageOp();
    pl.notePending(2, t0 + us(1000));
    EXPECT_EQ(pl.commitTrigger(t0 + us(2500), false),
              CommitTrigger::None);
    EXPECT_EQ(pl.commitTrigger(t0 + us(2500), true),
              CommitTrigger::Drained);
    EXPECT_EQ(pl.commitTrigger(t0 + us(3000), false),
              CommitTrigger::Deadline);
}

TEST(CommitPipeline, CommitBatchOpsRecordsOpsPerEpoch)
{
    CommitPipeline pl(policyOf(3, 8));
    lp::obs::ShardObs ob;
    pl.attachObs(&ob);

    pl.beginEpoch();
    for (int i = 0; i < 3; ++i)
        pl.stageOp();
    pl.commitEpoch();  // full batch: 3 ops
    pl.beginEpoch();
    pl.stageOp();
    pl.commitEpoch();  // drained early: 1 op
    EXPECT_FALSE(pl.commitEpoch());  // nothing open: no sample

    EXPECT_EQ(ob.commitBatchOps.count(), 2u);
    EXPECT_EQ(ob.commitBatchOps.sum(), 4u);
}

TEST(CommitPipeline, ReleaseUpToPopsOnlyCommittedEpochs)
{
    using Clock = CommitPipeline::Clock;
    CommitPipeline pl(policyOf(2, 8));
    const Clock::time_point t0{};
    pl.notePending(1, t0);
    pl.notePending(1, t0);
    pl.notePending(2, t0);
    pl.notePending(3, t0);

    EXPECT_EQ(pl.releaseUpTo(0), 0u);
    EXPECT_EQ(pl.releaseUpTo(1), 2u);
    EXPECT_EQ(pl.pendingCount(), 2u);
    // The next deadline now belongs to epoch 2's ack.
    EXPECT_TRUE(pl.hasPending());
    EXPECT_EQ(pl.releaseUpTo(3), 2u);
    EXPECT_FALSE(pl.hasPending());
    EXPECT_EQ(pl.counters().acksReleased, 4u);
}

TEST(CommitPipeline, RebaseResetsOntoTheRecoveredWatermark)
{
    using Clock = CommitPipeline::Clock;
    CommitPipeline pl(policyOf(2, 2));
    pl.beginEpoch();
    pl.stageOp();
    pl.notePending(1, Clock::time_point{});

    pl.rebase(7);
    EXPECT_FALSE(pl.epochOpen());
    EXPECT_EQ(pl.stagedOps(), 0);
    EXPECT_EQ(pl.lastCommitted(), 7u);
    EXPECT_EQ(pl.foldedEpoch(), 7u);
    EXPECT_EQ(pl.committedSinceFold(), 0);
    EXPECT_FALSE(pl.hasPending());
    EXPECT_EQ(pl.beginEpoch(), 8u);
}

TEST(CommitPipeline, CanonicalStatNamesAreStable)
{
    // The canonical spellings are an external contract: bench JSON
    // and the server stats report key on them.
    namespace sn = lp::engine::statname;
    EXPECT_STREQ(sn::opsStaged, "ops_staged");
    EXPECT_STREQ(sn::epochsCommitted, "epochs_committed");
    EXPECT_STREQ(sn::folds, "folds");
    EXPECT_STREQ(sn::deadlineCommits, "deadline_commits");
    EXPECT_STREQ(sn::acksReleased, "acks_released");
    EXPECT_STREQ(sn::committedEpoch, "committed_epoch");
    EXPECT_STREQ(sn::commitBatchOps, "commit_batch_ops");
}

} // namespace
