/**
 * @file
 * Checks of the benchmark's metric arithmetic (metric_math.hh) on
 * synthetic inputs. Exits non-zero on the first failed check; run.py
 * runs it before every benchmark run.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "metric_math.hh"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol;
}

void
testPercentileRank()
{
    using namespace perfbench;
    check(nearestRank(0, 50) == 0, "rank of empty sample");
    check(nearestRank(100, 50) == 50, "p50 of 100 is rank 50");
    check(nearestRank(100, 99) == 99, "p99 of 100 is rank 99");
    check(nearestRank(1000, 99) == 990, "p99 of 1000 is rank 990");
    check(nearestRank(1, 99.9) == 1, "rank clamps to 1..n");
    // Ten samples beyond: p99 needs n >= 1000, p99.9 needs n >= 10000.
    check(samplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
    check(highestSupportedPercentile(999) == 90.0,
          "999 samples support p90, not p99");
    check(highestSupportedPercentile(1000) == 99.0,
          "1000 samples support p99");
    check(highestSupportedPercentile(10000) == 99.9,
          "10000 samples support p99.9");
    check(highestSupportedPercentile(15) == 0.0,
          "15 samples support no ladder percentile");
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(1001 - i); // descending: percentile() must sort
    check(percentile(v, 99) == 990.0, "p99 of 1..1000 is 990");
    check(median(v) == 500.0, "median of 1..1000 is 500");
    check(percentile({}, 50) == 0.0, "percentile of empty sample is 0");
}

void
testSojourn()
{
    using perfbench::SojournTracker;
    SojournTracker t(2);
    // Ring 0 had already processed 100 packets before the phase.
    t.setBase(0, 100);
    t.setBase(1, 0);
    // Ring 0: three packets due at 1000, 2000, 3000 ns, pushed 100 ns
    // late each. Ring 1: one packet due at 1500.
    t.logOffer(0, 1000, 1100);
    t.logOffer(0, 2000, 2100);
    t.logOffer(0, 3000, 3100);
    t.logOffer(1, 1500, 1500);
    // A poll before any crossing completes nothing.
    t.observe(0, 100, 1500);
    check(t.sojournUs().empty() && t.pending() == 4,
          "no crossing, no completion");
    // Ring 0's counter crosses the first two packets at 4000 ns.
    t.observe(0, 102, 4000);
    check(t.sojournUs().size() == 2, "two packets crossed");
    check(near(t.sojournUs()[0], 3.0) && near(t.sojournUs()[1], 2.0),
          "sojourn runs from due time to the crossing poll");
    // Service: from the first packet's push (1100) to 4000.
    check(near(t.serviceUs().back(), 2.9), "first crossing's service");
    check(near(t.queueWaitUs()[0], 0.1) && near(t.queueWaitUs()[1], 0.0),
          "queue wait is sojourn minus service, floored at 0");
    // Next crossing on ring 0: service starts at the previous crossing
    // (4000), which is later than the packet's push (3100).
    t.observe(0, 103, 5000);
    check(near(t.sojournUs().back(), 2.0), "third packet sojourn");
    check(near(t.serviceUs().back(), 1.0),
          "service starts at the previous crossing when later");
    // A counter running past the log is clamped to what was logged.
    t.observe(1, 7, 2500);
    check(t.sojournUs().size() == 4 && near(t.sojournUs().back(), 1.0),
          "ring 1 packet completes once");
    check(t.pending() == 0, "every logged packet completed");
    check(t.dueNs().size() == 4 && t.dueNs()[3] == 1500,
          "each sample keeps its due time");
}

void
testWindowedPercentile()
{
    using perfbench::windowedPercentile;
    // Three 1000 ns windows of 1000 samples each; window 1 holds a
    // stall that lifts its p99 a hundredfold.
    std::vector<std::uint64_t> t;
    std::vector<double> v;
    for (int w = 0; w < 3; ++w)
        for (int i = 0; i < 1000; ++i) {
            t.push_back(100 + w * 1000 + i);
            v.push_back(w == 1 && i >= 980 ? 10000.0 : i % 100);
        }
    check(windowedPercentile(t, v, 100, 1000, 3, 99) == 98.0,
          "median of window p99s ignores one stalled window");
    check(windowedPercentile(t, v, 100, 1000, 3, 50) == 49.0,
          "median of window p50s");
    // Windows too small for p99 (fewer than 1000 samples) drop out.
    check(windowedPercentile(t, v, 100, 100, 30, 99) == 0.0,
          "no window supports p99");
    check(windowedPercentile(t, v, 100, 100, 30, 50) == 49.0,
          "100-sample windows support p50");
    // Samples before t0 or past the last window are ignored.
    check(windowedPercentile(t, v, 1100, 1000, 1, 99) > 1000.0,
          "a single stalled window is its own median");
}

void
testFailedRatio()
{
    using perfbench::failedRatio;
    check(failedRatio(0, 0) == 0.0, "nothing offered");
    check(failedRatio(1000, 1000) == 0.0, "every packet matched");
    check(near(failedRatio(200000, 57127), 0.714365),
          "unmatched packets count as failures");
    check(failedRatio(10, 20) == 0.0, "matched is capped at offered");
}

void
testBacklogGrowth()
{
    using perfbench::backlogGrowing;
    using perfbench::backlogGrowth;
    std::vector<std::pair<double, double>> flat, rising, noisy;
    for (int i = 0; i < 100; ++i) {
        const double s = i * 0.01;
        flat.emplace_back(s, 32.0);
        rising.emplace_back(s, 50.0 * i); // 5000 packets/s
        noisy.emplace_back(s, (i % 2) ? 64.0 : 0.0);
    }
    check(backlogGrowth(flat, 10000) == 0.0, "flat backlog");
    check(near(backlogGrowth(rising, 10000), 0.5, 1e-9),
          "backlog rising at half the offered rate");
    check(backlogGrowing(backlogGrowth(rising, 10000)),
          "rising backlog is growing");
    check(!backlogGrowing(backlogGrowth(noisy, 10000)),
          "oscillating backlog is not growing");
    check(backlogGrowth({{0.0, 5.0}}, 100) == 0.0, "one sample");
}

} // namespace

int
main()
{
    testPercentileRank();
    testSojourn();
    testWindowedPercentile();
    testFailedRatio();
    testBacklogGrowth();
    if (failures)
        return 1;
    std::printf("perfbench selftest: ok\n");
    return 0;
}
