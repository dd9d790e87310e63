/**
 * @file
 * Timing anchors of the benchmark's load generator.
 *
 * An open-loop phase sends on a Poisson schedule that does not wait
 * for replies. Each request keeps three timestamps: when it was due
 * (intended), when the generator actually wrote it (sent), and when
 * its reply arrived. Latency runs from the intended time, so a stall
 * in the server or in the generator is charged to every request that
 * was due during it (no coordinated omission). How late the
 * generator itself ran is reported separately, so a slow generator
 * cannot pass for a slow server. A closed loop has no schedule: its
 * intended time is its send time.
 */

#ifndef LPBENCH_GEN_OPENLOOP_HH
#define LPBENCH_GEN_OPENLOOP_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/rng.hh"

namespace lpbench
{

/** The three timestamps of one request, in ns on one clock. */
struct Anchors
{
    std::uint64_t intendedNs = 0;
    std::uint64_t sentNs = 0;
    std::uint64_t replyNs = 0;

    /** Omission-corrected latency: due time to reply. */
    std::uint64_t
    latencyNs() const
    {
        return replyNs > intendedNs ? replyNs - intendedNs : 0;
    }

    /** How far behind its schedule the generator sent. */
    std::uint64_t
    lateNs() const
    {
        return sentNs > intendedNs ? sentNs - intendedNs : 0;
    }

    /** Wire round trip: actual send to reply. */
    std::uint64_t
    rttNs() const
    {
        return replyNs > sentNs ? replyNs - sentNs : 0;
    }
};

/**
 * Poisson arrivals at @p ratePerSec: exponential gaps drawn from a
 * seeded generator, so one seed always yields one schedule. Times are
 * ns offsets from the phase start and never decrease.
 */
class PoissonSchedule
{
  public:
    PoissonSchedule(double ratePerSec, std::uint64_t seed)
        : rng_(seed * 0x9e3779b97f4a7c15ull + 0x51), meanGapNs_(1e9 / ratePerSec)
    {
    }

    /** Intended send time of the next request. */
    std::uint64_t
    next()
    {
        // 1 - uniform() lies in (0, 1], so the log is finite.
        tNs_ += -std::log(1.0 - rng_.uniform()) * meanGapNs_;
        return std::uint64_t(tNs_);
    }

  private:
    lp::Rng rng_;
    double meanGapNs_;
    double tNs_ = 0.0;
};

/**
 * Nearest-rank percentile (@p p in [0, 100]) of @p v, which is
 * sorted in place. 0 for an empty sample.
 */
inline double
percentile(std::vector<std::uint64_t> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * double(v.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : std::min(v.size() - 1, std::size_t(rank) - 1);
    return double(v[i]);
}

} // namespace lpbench

#endif // LPBENCH_GEN_OPENLOOP_HH
