// Figure 6 reproduction: relative error vs privacy budget epsilon.
//
// Workloads (m, 4) per dataset and aggregation, epsilon swept over
// {0.1 .. 1.3}, sampling rate 10% Adult / 5% Amazon. The paper's shape:
// error falls steeply with epsilon; SUM beats COUNT; Amazon beats Adult.
//
//   ./fig6_epsilon [--rows=N] [--queries=M] [--seed=S] [--full]

#include <cstdio>

#include "bench/bench_util.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t queries = flags.GetInt("queries", full ? 100 : 20);
  const size_t providers = flags.GetInt("providers", 4);
  const uint64_t seed = flags.GetInt("seed", 6);

  std::printf("# Figure 6: epsilon-based analysis (relative error %%)\n");
  std::printf("%-12s %-6s %-8s %12s %12s\n", "dataset", "agg", "epsilon",
              "mean90_err%", "median_err%");

  for (Dataset dataset : {Dataset::kAdult, Dataset::kAmazon}) {
    const size_t rows = flags.GetInt(
        "rows", dataset == Dataset::kAdult ? (full ? 2400000 : 1200000)
                                           : (full ? 5000000 : 2500000));
    const double sr = dataset == Dataset::kAdult ? 0.10 : 0.05;
    FederationConfig protocol;
    protocol.sampling_rate = sr;
    std::unique_ptr<Federation> fed =
        OpenPaperFederation(dataset, rows, providers, seed, protocol);
    if (!fed) return 1;

    for (Aggregation agg : {Aggregation::kSum, Aggregation::kCount}) {
      Result<std::vector<RangeQuery>> workload =
          PaperWorkload(fed.get(), queries, 4, agg, seed + 17);
      if (!workload.ok()) {
        std::fprintf(stderr, "workload failed: %s\n",
                     workload.status().ToString().c_str());
        continue;
      }
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
        std::printf("%-12s %-6s %-8.1f %11.2f%% %11.2f%%\n",
                    DatasetName(dataset), AggName(agg), eps,
                    100.0 * metrics.trimmed_mean_relative_error,
                    100.0 * metrics.median_relative_error);
      }
    }
  }
  std::printf("# paper shape: error falls as eps grows (DP trend); sum <\n"
              "# count in error; amazon < adult\n");
  return 0;
}
