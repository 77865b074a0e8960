#include "workload/workload.h"

#include "common/math.h"

namespace fedaqp {

Result<std::vector<QueryMeasurement>> RunWorkload(
    FederationClient* client, const std::string& analyst,
    const std::vector<RangeQuery>& queries) {
  std::vector<QueryMeasurement> out;
  out.reserve(queries.size());
  for (const auto& query : queries) {
    QueryMeasurement m;
    QuerySpec spec;
    spec.analyst = analyst;
    spec.query = query;
    spec.kind = QueryKind::kExact;
    FEDAQP_ASSIGN_OR_RETURN(QueryResponse exact, client->Submit(spec).Wait());
    spec.kind = QueryKind::kApproximate;
    FEDAQP_ASSIGN_OR_RETURN(QueryResponse approx,
                            client->Submit(std::move(spec)).Wait());
    m.true_answer = exact.estimate;
    m.estimate = approx.estimate;
    m.relative_error = RelativeError(m.true_answer, m.estimate);
    m.exact_seconds = exact.breakdown.TotalSeconds();
    m.approx_seconds = approx.breakdown.TotalSeconds();
    m.speedup = m.approx_seconds > 0.0 ? m.exact_seconds / m.approx_seconds
                                       : 0.0;
    m.exact_rows_scanned = exact.breakdown.rows_scanned;
    m.approx_rows_scanned = approx.breakdown.rows_scanned;
    m.work_ratio = m.approx_rows_scanned > 0
                       ? static_cast<double>(m.exact_rows_scanned) /
                             static_cast<double>(m.approx_rows_scanned)
                       : 0.0;
    out.push_back(m);
  }
  return out;
}

WorkloadMetrics Summarize(const std::vector<QueryMeasurement>& measurements) {
  WorkloadMetrics metrics;
  metrics.queries = measurements.size();
  if (measurements.empty()) return metrics;
  std::vector<double> errors, speedups, ratios;
  errors.reserve(measurements.size());
  speedups.reserve(measurements.size());
  ratios.reserve(measurements.size());
  for (const auto& m : measurements) {
    errors.push_back(m.relative_error);
    speedups.push_back(m.speedup);
    ratios.push_back(m.work_ratio);
  }
  metrics.mean_relative_error = Mean(errors);
  metrics.trimmed_mean_relative_error = TrimmedMean(errors, 0.9);
  metrics.median_relative_error = Median(errors);
  metrics.p90_relative_error = Percentile(errors, 90.0);
  metrics.mean_speedup = Mean(speedups);
  metrics.median_speedup = Median(speedups);
  metrics.mean_work_ratio = Mean(ratios);
  return metrics;
}

}  // namespace fedaqp
