/**
 * @file
 * obs::ShardObs -- the per-shard observability bundle every
 * CommitPipeline consumer carries.
 *
 * One instance per shard, owned by the shard's owner (KvStore, a
 * server worker) and attached to that shard's engine::CommitPipeline
 * so the persistency backends can reach it from the pipeline they
 * already hold. The histograms are always on (recording is two
 * relaxed atomic adds); the trace ring is null unless a
 * TraceCollector was attached.
 *
 * Threading follows the histogram/ring contracts: the shard's single
 * writer records; any thread may read the histograms (the server's
 * acceptor does, for METRICS).
 */

#ifndef LP_OBS_SHARD_OBS_HH
#define LP_OBS_SHARD_OBS_HH

#include "obs/histogram.hh"
#include "obs/trace.hh"

namespace lp::obs
{

struct ShardObs
{
    Histogram stageNs;   ///< backend stage(): per-mutation latency
    Histogram commitNs;  ///< backend commitEpoch() duration
    Histogram foldNs;    ///< backend fold / checkpoint duration
    Histogram recoverNs; ///< backend recover() duration
    Histogram scanNs;    ///< whole-scan latency (index + value reads)
    Histogram scanLen;   ///< records returned per scan (a count, not ns)
    Histogram scrubNs;   ///< online-scrub step duration
    Histogram commitBatchOps; ///< ops per committed epoch (a count)

    TraceRing *ring = nullptr; ///< null = tracing off for this shard
};

/** The bundle's ring when one is attached; null-safe on both levels. */
inline TraceRing *
ringOf(ShardObs *o)
{
    return o ? o->ring : nullptr;
}

} // namespace lp::obs

#endif // LP_OBS_SHARD_OBS_HH
