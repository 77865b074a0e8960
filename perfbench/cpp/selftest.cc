// Self-tests of the benchmark's own statistics (stats.h): the percentile
// and its tail-sample guard, latency from the scheduled arrival instant,
// the Poisson schedule, and the SLO knee search. Exits non-zero on the
// first failed check.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(1001 - i));
  Check(Near(Percentile(v, 0.5), 500.0), "p50 of 1..1000 is 500 (nearest rank)");
  Check(Near(Percentile(v, 0.99), 990.0), "p99 of 1..1000 is 990");
  Check(Near(Percentile(v, 1.0), 1000.0), "p100 is the maximum");
  Check(Near(Percentile({7.0}, 0.99), 7.0), "one sample is every percentile");
  Check(Percentile({}, 0.5) == 0.0, "empty input gives 0");
  Check(Near(Percentile({3.0, 1.0, 2.0}, 0.5), 2.0), "input order does not matter");
}

void TestTailGuard() {
  using perfbench::PercentileSupported;
  using perfbench::SamplesBeyond;
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Check(SamplesBeyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  Check(PercentileSupported(1000, 0.99), "p99 is reportable from 1000 samples");
  Check(!PercentileSupported(999, 0.99), "p99 is not reportable from 999 samples");
  Check(PercentileSupported(20, 0.5), "p50 is reportable from 20 samples");
  Check(!PercentileSupported(0, 0.5), "nothing is reportable from 0 samples");
}

void TestQuietRounds() {
  using perfbench::QuietRounds;
  const std::vector<size_t> q = QuietRounds({0.01, 0.20, 0.02, 0.00, 0.15});
  Check(q == std::vector<size_t>({0, 2, 3}), "rounds at or below the median steal are kept");
  Check(QuietRounds({0.0, 0.0, 0.0, 0.0}).size() == 4, "flat steal keeps every round");
  Check(QuietRounds({0.3, 0.1}).size() == 1, "two rounds keep the quieter one");
  Check(QuietRounds({}).empty(), "no rounds, none kept");
}

void TestLatencyFromScheduled() {
  using perfbench::LatencyFromScheduled;
  // Due at 1.000 s, submitted 30 ms late, delivered 5 ms after submit.
  Check(Near(LatencyFromScheduled(1.000, 1.030, 0.005), 0.035),
        "open-loop latency includes generator lag");
  Check(Near(LatencyFromScheduled(2.0, 2.0, 0.004), 0.004),
        "closed-loop latency is submit-to-delivery");
  // A stall delays every later request; measured from their due instants
  // they all see it (no coordinated omission).
  std::vector<double> due = {0.0, 0.001, 0.002};
  const double stall_until = 0.050;
  double worst = 0.0;
  for (double d : due) worst = std::max(worst, LatencyFromScheduled(d, stall_until, 0.001));
  Check(Near(worst, 0.051), "a stall counts against the earliest due request");
}

void TestSchedule() {
  const std::vector<double> a = perfbench::PoissonSchedule(1000.0, 20000, 7);
  const std::vector<double> b = perfbench::PoissonSchedule(1000.0, 20000, 7);
  const std::vector<double> c = perfbench::PoissonSchedule(1000.0, 20000, 8);
  Check(a == b, "same seed, same schedule");
  Check(a != c, "another seed, another schedule");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  Check(increasing, "arrival instants increase");
  Check(std::fabs(a.back() / 20.0 - 1.0) < 0.03, "mean rate within 3% of offered");
}

void TestKnee() {
  using perfbench::FindKnee;
  using perfbench::MeetsSlo;
  using perfbench::ProbeOutcome;
  // A system that keeps up to 1234 q/s and collapses beyond.
  const double capacity = 1234.0;
  auto probe = [&](double rate) {
    ProbeOutcome o;
    o.samples = 1000;
    o.achieved_qps = std::min(rate, capacity);
    o.p99_ms = rate <= capacity ? 5.0 : 500.0;
    return o;
  };
  auto pass = [](const ProbeOutcome& o) { return MeetsSlo(o, 100.0); };
  for (double start : {100.0, 1000.0, 1234.0, 5000.0}) {
    const perfbench::KneeSearch k = FindKnee(start, 0.05, 40, probe, pass);
    char what[96];
    std::snprintf(what, sizeof(what), "knee from start %.0f within 5%% below capacity",
                  start);
    Check(k.knee_qps <= capacity && k.knee_qps >= capacity / 1.05, what);
  }
  const perfbench::KneeSearch realized = FindKnee(
      1000.0, 0.05, 40,
      [&](double rate) {
        ProbeOutcome o = probe(rate);
        o.realized_qps = rate * 1.01;
        return o;
      },
      pass);
  Check(Near(realized.knee_realized_qps, realized.knee_qps * 1.01),
        "the knee reports the rate its passing probe really offered");
  const perfbench::KneeSearch few = FindKnee(1000.0, 0.05, 12, probe, pass);
  Check(few.probes.size() <= 12, "probe budget is respected");
  const perfbench::KneeSearch none = FindKnee(
      1000.0, 0.05, 6, [](double r) {
        ProbeOutcome o;
        o.achieved_qps = r;
        o.failed = 1;
        return o;
      },
      pass);
  Check(none.knee_qps == 0.0, "no passing rate reports 0");
  ProbeOutcome slow;
  slow.offered_qps = 1000.0;
  slow.achieved_qps = 940.0;
  Check(!MeetsSlo(slow, 100.0), "achieved below 95% of offered fails the SLO");
  slow.achieved_qps = 960.0;
  slow.p99_ms = 100.5;
  Check(!MeetsSlo(slow, 100.0), "p99 above the limit fails the SLO");
  slow.p99_ms = 99.0;
  Check(MeetsSlo(slow, 100.0), "p99 and rate within limits pass");
}

void TestChecksum() {
  using perfbench::AnswersChecksum;
  Check(AnswersChecksum({1.0, 2.0}) == AnswersChecksum({1.0, 2.0}), "checksum is stable");
  Check(AnswersChecksum({1.0, 2.0}) != AnswersChecksum({2.0, 1.0}), "checksum sees order");
  Check(AnswersChecksum({0.0}) != AnswersChecksum({-0.0}), "checksum sees bit patterns");
}

}  // namespace

int main() {
  TestPercentile();
  TestTailGuard();
  TestQuietRounds();
  TestLatencyFromScheduled();
  TestSchedule();
  TestKnee();
  TestChecksum();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
