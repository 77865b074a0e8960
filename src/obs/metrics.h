#ifndef FEDAQP_OBS_METRICS_H_
#define FEDAQP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fedaqp {
namespace obs {

/// Process-wide observability switches. Both are plain relaxed atomics
/// read through inline helpers, so the disabled hot path compiles down to
/// one predictable load+branch — no locks, no indirect calls.
namespace internal {
extern std::atomic<bool> g_metrics_enabled;  // default: on (counters are cheap)
extern std::atomic<bool> g_trace_enabled;    // default: off (spans allocate)

/// Stable per-thread stripe index into the sharded metric slots. Threads
/// round-robin over the stripes at first use, so a thread always hits the
/// same cache line and unrelated threads usually hit different ones.
size_t ThisThreadStripeSlow();
inline size_t ThisThreadStripe() {
  thread_local size_t stripe = ThisThreadStripeSlow();
  return stripe;
}
}  // namespace internal

/// True when metric increments are recorded. Inline-checked on every hot
/// path so a disabled registry costs one relaxed load.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// True when trace spans are recorded (see obs/trace.h).
inline bool TracingEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Stripes per metric: enough that the worker pools in play (<= 16-ish
/// threads) rarely share a line, small enough that snapshots stay cheap.
constexpr size_t kMetricStripes = 16;

/// Monotonic counter, striped per thread. Increments are single relaxed
/// fetch_adds on a thread-affine cache line; Value() folds the stripes.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    stripes_[internal::ThisThreadStripe()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kMetricStripes];
};

/// Last-write-wins instantaneous value (double payload in an atomic word).
class Gauge {
 public:
  void Set(double value) {
    if (!MetricsEnabled()) return;
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  /// Raises the gauge to `value` if larger (high-water marks).
  void SetMax(double value) {
    if (!MetricsEnabled()) return;
    double seen = Value();
    while (seen < value) {
      uint64_t seen_bits, want_bits;
      std::memcpy(&seen_bits, &seen, sizeof(seen_bits));
      std::memcpy(&want_bits, &value, sizeof(want_bits));
      if (bits_.compare_exchange_weak(seen_bits, want_bits,
                                      std::memory_order_relaxed)) {
        return;
      }
      std::memcpy(&seen, &seen_bits, sizeof(seen));
    }
  }
  double Value() const {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  void Reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  /// Bit pattern of 0.0 is all-zero, so zero-init == 0.0.
  std::atomic<uint64_t> bits_{0};
};

/// Log-bucketed latency histogram over seconds. Bucket i holds samples in
/// [2^i, 2^(i+1)) nanoseconds — ~64 buckets span sub-ns to ~584 years, so
/// no sample is ever clipped. Each bucket is striped like Counter;
/// Quantile() answers from a merged snapshot with the bucket's geometric
/// midpoint, so p50/p95/p99/p999 carry at most one octave of bucketing
/// error — plenty for latency triage.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(double seconds) {
    if (!MetricsEnabled()) return;
    buckets_[BucketFor(seconds)][internal::ThisThreadStripe()].v.fetch_add(
        1, std::memory_order_relaxed);
  }

  struct Snapshot {
    uint64_t counts[kBuckets] = {0};
    uint64_t total = 0;
    /// Seconds at the requested quantile (0 when empty).
    double Quantile(double q) const;
  };
  Snapshot Snap() const {
    Snapshot snap;
    for (size_t b = 0; b < kBuckets; ++b) {
      for (const Stripe& s : buckets_[b]) {
        snap.counts[b] += s.v.load(std::memory_order_relaxed);
      }
      snap.total += snap.counts[b];
    }
    return snap;
  }
  void Reset() {
    for (size_t b = 0; b < kBuckets; ++b) {
      for (Stripe& s : buckets_[b]) s.v.store(0, std::memory_order_relaxed);
    }
  }

  static size_t BucketFor(double seconds);
  /// Upper edge of bucket `b`, in seconds.
  static double BucketUpperSeconds(size_t b);

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe buckets_[kBuckets][kMetricStripes];
};

/// One merged metric value, as Snapshot() reports it.
struct MetricSample {
  enum class Kind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };
  std::string name;
  Kind kind = Kind::kCounter;
  /// Counter total, gauge value, or histogram sample count.
  double value = 0.0;
  /// Histogram quantiles (seconds); zero for counters/gauges.
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Named-metric registry: the one place every subsystem's counters live.
///
/// Naming convention: dotted `subsystem.metric` (e.g.
/// `scheduler.graphs_run`, `rpc.client.bytes_sent`, `cache.exact_hits`,
/// `accountant.charges`); histograms name the measured unit
/// (`task.seconds.estimate`). Lookup takes a mutex but returns a stable
/// pointer — hot paths resolve their handle once (function-local static)
/// and then increment lock-free.
///
/// Snapshot() merges the per-thread stripes under the registry mutex and
/// returns samples sorted by name; it is safe concurrently with
/// increments (relaxed reads of relaxed writes — telemetry tolerates
/// being a few increments behind a racing writer).
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Merged view of every metric whose name starts with `prefix` (empty =
  /// all), sorted by name.
  std::vector<MetricSample> Snapshot(const std::string& prefix = {}) const;

  /// Zeroes every metric (bench/test isolation). Handles stay valid.
  void ResetAll();

 private:
  mutable std::mutex mutex_;
  /// Ordered maps: snapshots come out name-sorted for free, and entries
  /// are never erased, so handed-out pointers stay stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace fedaqp

#endif  // FEDAQP_OBS_METRICS_H_
