// perfbench: one run of one workload of the fedaqp benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Prints a table of every metric (name, value, unit, samples), every
// correctness gate, and as its last line `PERFBENCH_RESULT <json>`, which
// perfbench/run.py turns into the benchmark's result. Exits 1 when a gate
// fails and 2 when the run could not be set up.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "storage/scan_kernel.h"
#include "workloads.h"

namespace {

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void PrintJson(const perfbench::Report& r, const perfbench::RunOptions& o) {
  std::printf("PERFBENCH_RESULT {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,",
              Escaped(o.workload).c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  std::printf("\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
              r.AllGatesPass() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("\"host\":{\"hardware_threads\":%u,\"avx2\":%s,\"scan_backend\":\"%s\","
              "\"compiler\":\"%s\",\"build_type\":\"%s\"},",
              std::thread::hardware_concurrency(),
              fedaqp::Avx2Available() ? "true" : "false",
              fedaqp::ScanBackendName(fedaqp::ActiveScanBackend()),
              Escaped(std::string("gcc ") + __VERSION__).c_str(),
              PERFBENCH_BUILD_TYPE);
  std::printf("\"metrics\":{");
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu}",
                i == 0 ? "" : ",", m.first.c_str(), m.second.value,
                m.second.unit.c_str(), m.second.samples);
  }
  std::printf("},\"info\":{");
  for (size_t i = 0; i < r.info.size(); ++i) {
    std::printf("%s\"%s\":\"%s\"", i == 0 ? "" : ",", r.info[i].first.c_str(),
                Escaped(r.info[i].second).c_str());
  }
  std::printf("},\"gates\":[");
  for (size_t i = 0; i < r.gates.size(); ++i) {
    const auto& g = r.gates[i];
    std::printf("%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}", i == 0 ? "" : ",",
                g.name.c_str(), g.ok ? "true" : "false", Escaped(g.detail).c_str());
  }
  std::printf("]}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      o.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || o.seconds <= 0.0) return Usage();

  perfbench::Report report;
  if (!perfbench::RunWorkload(o, &report)) return 2;

  std::printf("%-32s %16s %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const auto& m : report.metrics) {
    std::printf("%-32s %16.6g %-8s %8zu\n", m.first.c_str(), m.second.value,
                m.second.unit.c_str(), m.second.samples);
  }
  for (const auto& kv : report.info) {
    std::printf("info  %s = %s\n", kv.first.c_str(), kv.second.c_str());
  }
  for (const auto& g : report.gates) {
    std::printf("gate  %-28s %s  %s\n", g.name.c_str(), g.ok ? "PASS" : "FAIL",
                g.detail.c_str());
  }
  PrintJson(report, o);
  std::fflush(stdout);
  return report.AllGatesPass() ? 0 : 1;
}
