/**
 * @file
 * Checks the generator's timing anchors and its Poisson schedule
 * (lpbench/gen/openloop.hh). Plain asserts-that-stay: exits 1 on the
 * first failed check, so it runs under ctest without a framework.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "openloop.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

/**
 * A generator stalled from t=0 to t=100us sends three requests due at
 * 0, 10 and 20us back to back at 100us; each reply takes 5us. Every
 * latency must include the stall measured from its own due time.
 */
void
stalledSenderIsCharged()
{
    const std::uint64_t due[3] = {0, 10000, 20000};
    for (int i = 0; i < 3; ++i) {
        lpbench::Anchors a;
        a.intendedNs = due[i];
        a.sentNs = 100000;
        a.replyNs = 105000;
        check(a.latencyNs() == 105000 - due[i], "latency from intended");
        check(a.lateNs() == 100000 - due[i], "lateness from intended");
        check(a.rttNs() == 5000, "rtt from actual send");
    }
}

/** A closed-loop request (intended == sent) has no lateness. */
void
closedLoopHasNoLateness()
{
    lpbench::Anchors a;
    a.intendedNs = a.sentNs = 7000;
    a.replyNs = 9000;
    check(a.lateNs() == 0, "closed loop lateness");
    check(a.latencyNs() == a.rttNs(), "closed loop latency == rtt");
}

/** Same seed, same schedule; monotone; mean gap near 1/rate. */
void
scheduleIsSeededPoisson()
{
    lpbench::PoissonSchedule a(50000, 7), b(50000, 7), c(50000, 8);
    std::uint64_t prev = 0, last = 0;
    bool same = true, differs = false, monotone = true;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t x = a.next();
        same = same && x == b.next();
        differs = differs || x != c.next();
        monotone = monotone && x >= prev;
        prev = last = x;
    }
    check(same, "same seed gives the same schedule");
    check(differs, "another seed gives another schedule");
    check(monotone, "intended times never decrease");
    const double meanGapNs = double(last) / n;
    check(std::fabs(meanGapNs - 20000.0) < 200.0, "mean gap is 1/rate");
}

void
percentileIsNearestRank()
{
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 100; i >= 1; --i)
        v.push_back(i);
    check(lpbench::percentile(v, 50) == 50.0, "p50 of 1..100");
    check(lpbench::percentile(v, 99) == 99.0, "p99 of 1..100");
    check(lpbench::percentile(v, 100) == 100.0, "p100 of 1..100");
    std::vector<std::uint64_t> empty;
    check(lpbench::percentile(empty, 50) == 0.0, "empty sample");
}

} // namespace

int
main()
{
    stalledSenderIsCharged();
    closedLoopHasNoLateness();
    scheduleIsSeededPoisson();
    percentileIsNearestRank();
    if (failures == 0)
        std::printf("test_openloop: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
