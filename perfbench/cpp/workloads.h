// The benchmark's three workloads, run against fedaqp's public API.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds of one run; phases take fixed shares of it.
  double seconds = 10.0;
  /// Traced run: untraced half, then the same phases through the layer
  /// decorators, giving per-layer metrics and the tracing overhead.
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty: not written).
  std::string trace_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 when it is not a sample statistic).
  size_t samples = 0;
};

/// Everything one run reports. Metrics keep insertion order.
struct Report {
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  /// Correctness gates: name, passed, detail.
  struct Gate {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Gate> gates;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  void Info(const std::string& key, const std::string& value);
  void AddGate(const std::string& name, bool ok, const std::string& detail);
  bool AllGatesPass() const;
};

/// Names accepted by --workload.
std::vector<std::string> WorkloadNames();

/// Runs one workload. Returns false when the run could not be carried
/// out at all (set-up failure); gate failures are reported in `report`.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
