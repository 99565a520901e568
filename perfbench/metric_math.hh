/**
 * @file
 * The benchmark's own metric arithmetic, kept free of any program code
 * so selftest.cc can check it on synthetic inputs.
 *
 *  - Percentiles are nearest-rank. A percentile is reported only as
 *    high as the sample supports: at least ten samples must lie beyond
 *    its rank.
 *  - Sojourn is measured from outside the program. The benchmark logs
 *    each packet's due time against the ring it landed on. Rings are
 *    FIFO and a worker publishes its processed-packet counter once per
 *    batch, so when the counter crosses a packet's ring index the
 *    packet is done. The poll that sees the crossing stamps the
 *    completion time.
 *  - A crossing's batch service is estimated as its completion stamp
 *    minus the later of the ring's previous crossing and the push time
 *    of the crossing's first packet; queue wait is sojourn minus that.
 *  - Sojourn percentiles are taken per time window and the median over
 *    windows is reported.
 *  - Backlog growth is the least-squares slope of the backlog, in
 *    packets per second, as a share of the offered rate.
 */

#ifndef PERFBENCH_METRIC_MATH_HH
#define PERFBENCH_METRIC_MATH_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/** 1-based nearest rank of percentile @p p (0 < p <= 100) among @p n
 *  samples; 0 when @p n is 0. */
inline std::size_t
nearestRank(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    const auto r = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}

/** Samples strictly beyond the nearest rank of @p p. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n - nearestRank(n, p);
}

/** Highest percentile of {50, 90, 99, 99.9, 99.99} with at least
 *  @p min_beyond samples beyond its rank; 0 when none qualifies. */
inline double
highestSupportedPercentile(std::size_t n, std::size_t min_beyond = 10)
{
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99})
        if (n > 0 && samplesBeyond(n, p) >= min_beyond)
            best = p;
    return best;
}

/** Nearest-rank percentile of a sample; 0 when it is empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const auto k = static_cast<std::ptrdiff_t>(nearestRank(v.size(), p) - 1);
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[static_cast<std::size_t>(k)];
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** Share of offered packets that got no verdict: dropped, or
 *  processed without a match. 0 when nothing was offered. */
inline double
failedRatio(std::uint64_t offered, std::uint64_t matched)
{
    if (offered == 0)
        return 0.0;
    const std::uint64_t m = std::min(matched, offered);
    return static_cast<double>(offered - m) /
           static_cast<double>(offered);
}

/**
 * Per-ring sojourn bookkeeping for an open-loop phase.
 *
 * setBase() gives each ring's processed counter as it read before the
 * first logged packet. logOffer() appends one accepted packet to its
 * ring. observe() takes a fresh counter read and completes every
 * logged packet the counter has crossed.
 */
class SojournTracker
{
  public:
    explicit SojournTracker(std::size_t rings) : rings_(rings) {}

    void setBase(std::size_t ring, std::uint64_t processed)
    {
        rings_[ring].base = processed;
    }

    void
    logOffer(std::size_t ring, std::uint64_t due_ns, std::uint64_t push_ns)
    {
        rings_[ring].due.push_back(due_ns);
        rings_[ring].push.push_back(push_ns);
    }

    void
    observe(std::size_t ring, std::uint64_t processed, std::uint64_t now_ns)
    {
        Ring &r = rings_[ring];
        const std::uint64_t done =
            std::min<std::uint64_t>(processed - r.base, r.due.size());
        if (done <= r.done)
            return;
        const std::uint64_t start =
            std::max(r.lastCrossing, r.push[r.done]);
        const double service_us =
            static_cast<double>(now_ns - std::min(start, now_ns)) / 1e3;
        service_.push_back(service_us);
        for (std::uint64_t i = r.done; i < done; ++i) {
            const double soj =
                static_cast<double>(now_ns - std::min(r.due[i], now_ns)) /
                1e3;
            sojourn_.push_back(soj);
            dueNs_.push_back(r.due[i]);
            queueWait_.push_back(std::max(0.0, soj - service_us));
        }
        r.done = done;
        r.lastCrossing = now_ns;
    }

    /** Logged packets not yet crossed. */
    std::uint64_t
    pending() const
    {
        std::uint64_t n = 0;
        for (const Ring &r : rings_)
            n += r.due.size() - r.done;
        return n;
    }

    const std::vector<double> &sojournUs() const { return sojourn_; }
    /** Due time of each sojournUs() sample. */
    const std::vector<std::uint64_t> &dueNs() const { return dueNs_; }
    const std::vector<double> &queueWaitUs() const { return queueWait_; }
    const std::vector<double> &serviceUs() const { return service_; }

  private:
    struct Ring
    {
        std::uint64_t base = 0;
        std::uint64_t done = 0;
        std::uint64_t lastCrossing = 0;
        std::vector<std::uint64_t> due;
        std::vector<std::uint64_t> push;
    };
    std::vector<Ring> rings_;
    std::vector<double> sojourn_;
    std::vector<std::uint64_t> dueNs_;
    std::vector<double> queueWait_;
    std::vector<double> service_;
};

/**
 * Median, over @p windows equal time windows starting at @p t0_ns, of
 * each window's percentile @p p of @p values (sample i falls in the
 * window holding times_ns[i]). A window whose sample does not support
 * @p p (fewer than ten samples beyond its rank) is left out; 0 when no
 * window qualifies. One stall then moves one window, not the result.
 */
inline double
windowedPercentile(const std::vector<std::uint64_t> &times_ns,
                   const std::vector<double> &values, std::uint64_t t0_ns,
                   std::uint64_t window_ns, unsigned windows, double p)
{
    std::vector<std::vector<double>> bins(windows);
    for (std::size_t i = 0; i < values.size() && window_ns; ++i) {
        if (times_ns[i] < t0_ns)
            continue;
        const std::uint64_t w = (times_ns[i] - t0_ns) / window_ns;
        if (w < windows)
            bins[w].push_back(values[i]);
    }
    std::vector<double> per;
    for (std::vector<double> &b : bins)
        if (samplesBeyond(b.size(), p) >= 10)
            per.push_back(percentile(std::move(b), p));
    return median(std::move(per));
}

/**
 * Least-squares slope of backlog samples {seconds, packets}, as a
 * share of @p rate_pps. 0 when fewer than two distinct times exist.
 */
inline double
backlogGrowth(const std::vector<std::pair<double, double>> &samples,
              double rate_pps)
{
    const double n = static_cast<double>(samples.size());
    if (samples.size() < 2 || rate_pps <= 0.0)
        return 0.0;
    double st = 0, sb = 0;
    for (const auto &[t, b] : samples) {
        st += t;
        sb += b;
    }
    const double mt = st / n, mb = sb / n;
    double num = 0, den = 0;
    for (const auto &[t, b] : samples) {
        num += (t - mt) * (b - mb);
        den += (t - mt) * (t - mt);
    }
    return den > 0.0 ? num / den / rate_pps : 0.0;
}

/** A backlog that grows by more than 1% of the offered rate means the
 *  rate exceeds what the system sustains. */
inline bool
backlogGrowing(double growth)
{
    return growth > 0.01;
}

} // namespace perfbench

#endif // PERFBENCH_METRIC_MATH_HH
