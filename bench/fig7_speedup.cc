// Figure 7 reproduction: speed-up vs number of dimensions and vs epsilon
// (Amazon dataset).
//
// The paper's shape: speed-up declines with dimensions (more metadata
// lookups during the proportion approximation), roughly 8x -> 6x over
// n=2..5, and is flat across epsilon (noise costs nothing to compute).
//
//   ./fig7_speedup [--rows=N] [--queries=M] [--seed=S] [--full]

#include <cstdio>

#include "bench/bench_util.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t queries = flags.GetInt("queries", full ? 100 : 20);
  const size_t providers = flags.GetInt("providers", 4);
  const uint64_t seed = flags.GetInt("seed", 7);
  const size_t rows = flags.GetInt("rows", full ? 4000000 : 1500000);

  FederationConfig protocol;
  protocol.sampling_rate = 0.05;
  protocol.per_query_budget = {1.0, 1e-3};
  std::unique_ptr<Federation> fed =
      OpenPaperFederation(Dataset::kAmazon, rows, providers, seed, protocol);
  if (!fed) return 1;

  std::printf("# Figure 7: impact of dimensions and epsilon on speed-up "
              "(amazon)\n");
  std::printf("%-8s %-6s %-8s %11s %11s\n", "sweep", "agg", "value",
              "speed_up", "work_ratio");

  // Part 1: dimensions sweep at eps = 1.
  for (Aggregation agg : {Aggregation::kSum, Aggregation::kCount}) {
    for (size_t n = 2; n <= 5; ++n) {
      Result<std::vector<RangeQuery>> workload =
          PaperWorkload(fed.get(), queries, n, agg, seed + n * 3);
      if (!workload.ok()) continue;
      Result<std::unique_ptr<FederationClient>> client =
          MakeClient(fed->MakeEndpoints(), protocol);
      if (!client.ok()) return 1;
      Result<std::vector<QueryMeasurement>> ms = RunWorkload(
          client->get(), Federation::kAnalyst, *workload);
      if (!ms.ok()) return 1;
      WorkloadMetrics metrics = Summarize(*ms);
      std::printf("%-8s %-6s %-8zu %10.2fx %10.2fx\n", "dims", AggName(agg),
                  n, metrics.mean_speedup, metrics.mean_work_ratio);
    }
  }

  // Part 2: epsilon sweep at n = 4.
  for (Aggregation agg : {Aggregation::kSum, Aggregation::kCount}) {
    Result<std::vector<RangeQuery>> workload =
        PaperWorkload(fed.get(), queries, 4, agg, seed + 53);
    if (!workload.ok()) continue;
    for (double eps : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3}) {
      FederationConfig config = protocol;
      config.per_query_budget = {eps, 1e-3};
      Result<std::unique_ptr<FederationClient>> client =
          MakeClient(fed->MakeEndpoints(), config);
      if (!client.ok()) return 1;
      Result<std::vector<QueryMeasurement>> ms = RunWorkload(
          client->get(), Federation::kAnalyst, *workload);
      if (!ms.ok()) return 1;
      WorkloadMetrics metrics = Summarize(*ms);
      std::printf("%-8s %-6s %-8.1f %10.2fx %10.2fx\n", "epsilon",
                  AggName(agg), eps, metrics.mean_speedup,
                  metrics.mean_work_ratio);
    }
  }
  std::printf("# paper shape: speed-up falls with dims (~8x -> ~6x) and is\n"
              "# flat across epsilon\n");
  return 0;
}
