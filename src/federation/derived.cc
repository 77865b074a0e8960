#include "federation/derived.h"

#include <algorithm>
#include <cmath>

namespace fedaqp {

namespace {

/// Re-issues `base` with a different aggregation.
RangeQuery WithAggregation(const RangeQuery& base, Aggregation agg) {
  return RangeQuery(agg, base.ranges());
}

/// Submits `query` for `analyst` and waits for the answer.
Result<QueryResponse> Ask(FederationClient* client, const std::string& analyst,
                          RangeQuery query) {
  QuerySpec spec;
  spec.analyst = analyst;
  spec.query = std::move(query);
  return client->Submit(std::move(spec)).Wait();
}

Result<double> RunAs(FederationClient* client, const std::string& analyst,
                     const RangeQuery& base, Aggregation agg,
                     PrivacyBudget* spent) {
  FEDAQP_ASSIGN_OR_RETURN(QueryResponse resp,
                          Ask(client, analyst, WithAggregation(base, agg)));
  spent->epsilon += resp.spent.epsilon;
  spent->delta += resp.spent.delta;
  return resp.estimate;
}

}  // namespace

Result<DerivedResult> PrivateAverage(FederationClient* client,
                                     const std::string& analyst,
                                     const RangeQuery& range) {
  DerivedResult out;
  FEDAQP_ASSIGN_OR_RETURN(
      out.sum, RunAs(client, analyst, range, Aggregation::kSum, &out.spent));
  FEDAQP_ASSIGN_OR_RETURN(
      out.count,
      RunAs(client, analyst, range, Aggregation::kCount, &out.spent));
  // Post-processing: the ratio of two DP releases is DP (Thm 3.3). A noisy
  // non-positive denominator yields 0 rather than a wild ratio.
  out.value = out.count > 0.0 ? out.sum / out.count : 0.0;
  if (out.value < 0.0) out.value = 0.0;
  return out;
}

Result<DerivedResult> PrivateVariance(FederationClient* client,
                                      const std::string& analyst,
                                      const RangeQuery& range) {
  DerivedResult out;
  FEDAQP_ASSIGN_OR_RETURN(
      out.sum, RunAs(client, analyst, range, Aggregation::kSum, &out.spent));
  FEDAQP_ASSIGN_OR_RETURN(
      out.count,
      RunAs(client, analyst, range, Aggregation::kCount, &out.spent));
  FEDAQP_ASSIGN_OR_RETURN(
      out.sum_squares,
      RunAs(client, analyst, range, Aggregation::kSumSquares, &out.spent));
  if (out.count > 0.0) {
    double mean = out.sum / out.count;
    out.value = out.sum_squares / out.count - mean * mean;
  }
  out.value = std::max(0.0, out.value);
  return out;
}

Result<DerivedResult> PrivateStdDev(FederationClient* client,
                                    const std::string& analyst,
                                    const RangeQuery& range) {
  FEDAQP_ASSIGN_OR_RETURN(DerivedResult var,
                          PrivateVariance(client, analyst, range));
  var.value = std::sqrt(var.value);
  return var;
}

Result<GroupByResult> PrivateGroupBy(FederationClient* client,
                                     const std::string& analyst,
                                     const RangeQuery& base_query,
                                     const GroupByOptions& options) {
  // The grouped dimension must not also be range-constrained (that would
  // silently intersect with the per-bucket equality constraint).
  for (const auto& r : base_query.ranges()) {
    if (r.dim_index == options.group_dim) {
      return Status::InvalidArgument(
          "group-by: base query already constrains the grouped dimension");
    }
  }

  GroupByResult out;
  Value lo = options.group_lo;
  Value hi = options.group_hi;
  PrivacyBudget per_bucket{0.0, 0.0};
  bool first = true;
  for (Value v = lo; hi < 0 || v <= hi; ++v) {
    std::vector<DimRange> ranges = base_query.ranges();
    ranges.push_back(DimRange{options.group_dim, v, v});
    RangeQuery bucket_query(base_query.aggregation(), std::move(ranges));
    Result<QueryResponse> resp =
        Ask(client, analyst, std::move(bucket_query));
    if (!resp.ok()) {
      // Domain end: an out-of-range bucket value fails validation, which
      // terminates an open-ended (group_hi = -1) enumeration.
      if (hi < 0 && resp.status().code() == StatusCode::kOutOfRange) break;
      return resp.status();
    }
    out.buckets.push_back(GroupByBucket{v, resp->estimate});
    per_bucket = resp->spent;
    first = false;
  }
  if (first) {
    return Status::InvalidArgument("group-by: empty bucket interval");
  }
  // Buckets partition disjoint rows: parallel composition (Thm 3.2).
  out.spent = per_bucket;
  return out;
}

}  // namespace fedaqp
