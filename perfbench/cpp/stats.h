// Statistics the benchmark computes itself: rank percentiles with a
// tail-sample guard, latency measured from an open loop's scheduled
// arrival instant, seeded Poisson schedules, the SLO knee search and an
// answer fingerprint. Header-only and library-free so perfbench_selftest
// can pin every rule without linking fedaqp.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. Returns 0 for an empty input.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

/// A percentile is only reported when at least `min_beyond` samples lie
/// beyond it (p99 therefore needs >= 1000 samples).
inline bool PercentileSupported(size_t n, double q, size_t min_beyond = 10) {
  return n > 0 && SamplesBeyond(n, q) >= min_beyond;
}

/// Indices of the measurement rounds that ran while the host was
/// quietest: those whose share of CPU time stolen by other guests is at
/// most the median round's. Always at least half the rounds; all of them
/// when steal is flat (for instance, unmeasured).
inline std::vector<size_t> QuietRounds(const std::vector<double>& steal) {
  const double cut = Percentile(steal, 0.5);
  std::vector<size_t> quiet;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cut) quiet.push_back(i);
  }
  return quiet;
}

/// Latency of one open-loop request, measured from the instant it was due
/// (not from when the generator got round to submitting it): generator lag
/// plus the client's own submit-to-delivery wall time. Closed-loop
/// requests are due when they are submitted, so their lag is zero.
inline double LatencyFromScheduled(double scheduled_s, double submitted_s,
                                   double wall_s) {
  return (submitted_s - scheduled_s) + wall_s;
}

/// splitmix64: a tiny, portable, seedable generator, so a schedule is the
/// same for a seed on every standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double Unit() {
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Poisson arrival instants (seconds from the loop's start) at `rate`,
/// stopping at `count` arrivals.
inline std::vector<double> PoissonSchedule(double rate, size_t count,
                                           uint64_t seed) {
  std::vector<double> at;
  at.reserve(count);
  SplitMix rng(seed);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += -std::log(rng.Unit()) / rate;
    at.push_back(t);
  }
  return at;
}

/// Outcome of one offered-rate probe of the knee search.
struct ProbeOutcome {
  /// Nominal offered rate (set by FindKnee).
  double offered_qps = 0.0;
  /// Rate the probe's random arrival draw really offered (0: nominal).
  double realized_qps = 0.0;
  double achieved_qps = 0.0;
  double p99_ms = 0.0;
  size_t failed = 0;
  size_t samples = 0;
};

/// The SLO a probe must meet: p99 from scheduled arrival within the
/// limit, achieved rate within 5% of offered, and no failed request.
inline bool MeetsSlo(const ProbeOutcome& p, double p99_limit_ms) {
  return p.failed == 0 && p.p99_ms <= p99_limit_ms &&
         p.achieved_qps >= 0.95 * p.offered_qps;
}

struct KneeSearch {
  /// Highest nominal offered rate that met the SLO (0 if none did).
  double knee_qps = 0.0;
  /// The rate that passing probe's arrivals really offered: the measured
  /// knee (nominal rates lie on the search grid).
  double knee_realized_qps = 0.0;
  /// Every probe, in the order run.
  std::vector<ProbeOutcome> probes;
};

/// Finds the highest rate meeting the SLO to within `resolution` (0.05 =
/// 5%): grows or shrinks geometrically from `start` until one passing
/// and one failing rate bracket the knee, then bisects the bracket in log
/// space. `probe` runs one offered rate; `pass` judges it. Stops after
/// `max_probes` probes and reports the best passing rate found.
inline KneeSearch FindKnee(double start, double resolution, size_t max_probes,
                           const std::function<ProbeOutcome(double)>& probe,
                           const std::function<bool(const ProbeOutcome&)>& pass) {
  KneeSearch out;
  double lo = 0.0;  // highest passing rate seen
  double hi = 0.0;  // lowest failing rate seen
  double rate = start;
  auto run = [&](double r) {
    ProbeOutcome o = probe(r);
    o.offered_qps = r;
    out.probes.push_back(o);
    const bool ok = pass(o);
    if (ok) {
      if (r > lo) {
        lo = r;
        out.knee_realized_qps = o.realized_qps > 0.0 ? o.realized_qps : r;
      }
    } else if (hi == 0.0 || r < hi) {
      hi = r;
    }
    return ok;
  };
  while (out.probes.size() < max_probes) {
    if (lo > 0.0 && hi > 0.0) {
      if (hi <= lo * (1.0 + resolution)) break;
      rate = std::sqrt(lo * hi);
    } else if (lo > 0.0) {
      rate = lo * 2.0;
    } else if (hi > 0.0) {
      rate = hi / 2.0;
    }
    run(rate);
  }
  out.knee_qps = lo;
  return out;
}

/// FNV-1a over the bit patterns of `values`: a compact fingerprint of a
/// run's answers, equal across runs exactly when every answer is.
inline uint64_t AnswersChecksum(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
