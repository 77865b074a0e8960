// Figure 4 reproduction: relative error vs number of query dimensions.
//
// Workloads (m, n) with n in [2,7] on Adult and [2,5] on Amazon, for both
// SUM and COUNT, at the paper's sampling rates (20% Adult / 5% Amazon).
// The paper's shape: error grows with n (the independence-based R
// approximation degrades) and Amazon errors are far below Adult errors.
//
//   ./fig4_dimension_error [--rows=N] [--queries=M] [--seed=S] [--full]

#include <cstdio>

#include "bench/bench_util.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t queries = flags.GetInt("queries", full ? 100 : 25);
  const size_t providers = flags.GetInt("providers", 4);
  const uint64_t seed = flags.GetInt("seed", 4);

  std::printf("# Figure 4: dimension-based analysis (relative error %%)\n");
  std::printf("%-12s %-6s %-4s %12s %12s\n", "dataset", "agg", "n",
              "mean90_err%", "median_err%");

  for (Dataset dataset : {Dataset::kAdult, Dataset::kAmazon}) {
    const size_t rows = flags.GetInt(
        "rows", dataset == Dataset::kAdult ? (full ? 2400000 : 1200000)
                                           : (full ? 5000000 : 2500000));
    const double sr = dataset == Dataset::kAdult ? 0.20 : 0.05;
    const size_t max_n = dataset == Dataset::kAdult ? 7 : 5;

    FederationConfig protocol;
    protocol.sampling_rate = sr;
    protocol.per_query_budget = {1.0, 1e-3};
    std::unique_ptr<Federation> fed =
        OpenPaperFederation(dataset, rows, providers, seed, protocol);
    if (!fed) return 1;

    for (Aggregation agg : {Aggregation::kSum, Aggregation::kCount}) {
      for (size_t n = 2; n <= max_n; ++n) {
        Result<std::vector<RangeQuery>> workload =
            PaperWorkload(fed.get(), queries, n, agg, seed + n * 31);
        if (!workload.ok()) {
          std::fprintf(stderr, "workload (n=%zu) failed: %s\n", n,
                       workload.status().ToString().c_str());
          continue;
        }
        Result<std::unique_ptr<FederationClient>> client =
            MakeClient(fed->MakeEndpoints(), protocol);
        if (!client.ok()) return 1;
        Result<std::vector<QueryMeasurement>> ms = RunWorkload(
            client->get(), Federation::kAnalyst, *workload);
        if (!ms.ok()) return 1;
        WorkloadMetrics metrics = Summarize(*ms);
        std::printf("%-12s %-6s %-4zu %11.2f%% %11.2f%%\n",
                    DatasetName(dataset), AggName(agg), n,
                    100.0 * metrics.trimmed_mean_relative_error,
                    100.0 * metrics.median_relative_error);
      }
    }
  }
  std::printf("# paper shape: error grows with n; amazon << adult; ~0%% at "
              "n=2\n");
  return 0;
}
