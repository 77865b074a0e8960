#include "sampling/uniform.h"

#include <numeric>

#include "common/stopwatch.h"
#include "sampling/hansen_hurwitz.h"

namespace fedaqp {

Result<std::vector<size_t>> UniformIndices(size_t population,
                                           size_t sample_size,
                                           bool with_replacement, Rng* rng) {
  if (population == 0) {
    return Status::InvalidArgument("uniform sampling: empty population");
  }
  if (!with_replacement && sample_size > population) {
    return Status::InvalidArgument(
        "uniform sampling: sample exceeds population without replacement");
  }
  std::vector<size_t> out;
  out.reserve(sample_size);
  if (with_replacement) {
    for (size_t i = 0; i < sample_size; ++i) {
      out.push_back(static_cast<size_t>(rng->UniformU64(population)));
    }
  } else {
    std::vector<size_t> pool(population);
    std::iota(pool.begin(), pool.end(), 0);
    rng->Shuffle(&pool);
    out.assign(pool.begin(), pool.begin() + sample_size);
  }
  return out;
}

Result<BernoulliEstimate> BernoulliRowEstimate(const ClusterStore& store,
                                               const RangeQuery& query,
                                               double rate, Rng* rng) {
  if (rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument("Bernoulli sampling: rate must be in (0,1]");
  }
  BernoulliEstimate out;
  double acc = 0.0;
  store.ForEachCluster([&](const Cluster& cluster) {
    for (size_t i = 0; i < cluster.num_rows(); ++i) {
      ++out.rows_scanned;
      if (!rng->Bernoulli(rate)) continue;
      ++out.rows_kept;
      bool match = true;
      for (const auto& r : query.ranges()) {
        Value v = cluster.at(i, r.dim_index);
        if (v < r.lo || v > r.hi) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      double m = static_cast<double>(cluster.measure(i));
      switch (query.aggregation()) {
        case Aggregation::kCount:
          acc += 1.0;
          break;
        case Aggregation::kSum:
          acc += m;
          break;
        case Aggregation::kSumSquares:
          acc += m * m;
          break;
      }
    }
  });
  out.estimate = acc / rate;
  return out;
}

Result<UniformClusterEstimate> UniformClusterSample(const ClusterStore& store,
                                                    const RangeQuery& query,
                                                    size_t sample_size,
                                                    Rng* rng) {
  FEDAQP_ASSIGN_OR_RETURN(
      std::vector<size_t> picks,
      UniformIndices(store.num_clusters(), sample_size,
                     /*with_replacement=*/true, rng));
  std::vector<double> results;
  std::vector<double> probs;
  results.reserve(picks.size());
  probs.reserve(picks.size());
  double uniform_p = 1.0 / static_cast<double>(store.num_clusters());
  const ScanProfile profile = ProfileFor(query.aggregation());
  size_t rows_scanned = 0;
  Stopwatch scan_timer;
  for (size_t idx : picks) {
    ScanResult r = store.ScanCluster(idx, query, profile);
    results.push_back(static_cast<double>(r.For(query.aggregation())));
    probs.push_back(uniform_p);
    rows_scanned += store.ClusterRows(idx);
  }
  RecordStoreScan(rows_scanned, scan_timer.ElapsedSeconds());
  FEDAQP_ASSIGN_OR_RETURN(HansenHurwitzEstimate est,
                          HansenHurwitz(results, probs));
  UniformClusterEstimate out;
  out.estimate = est.estimate;
  out.clusters_scanned = picks.size();
  return out;
}

}  // namespace fedaqp
