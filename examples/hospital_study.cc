// Hospital federation scenario (the paper's motivating example): several
// hospitals jointly analyze patient statistics during an epidemic without
// exposing individual records. Demonstrates the exact-path bypass for
// narrow queries, the approximation for broad ones, and budget exhaustion.
//
//   ./hospital_study

#include <cstdio>

#include "core/fedaqp.h"

using namespace fedaqp;  // NOLINT: example brevity

namespace {

// Patient admissions table: age x severity x ward x stay-days.
Result<std::vector<Table>> SynthesizeHospitals(size_t hospitals) {
  SyntheticConfig cfg;
  cfg.rows = 80000;
  cfg.seed = 2026;
  cfg.dims = {{"age", 90, DistributionKind::kNormal, 0.45},
              {"severity", 10, DistributionKind::kZipf, 1.6},
              {"ward", 12, DistributionKind::kCategoricalSkewed, 0.0},
              {"stay_days", 60, DistributionKind::kZipf, 1.2}};
  return GenerateFederatedTensors(cfg, {0, 1, 2, 3}, hospitals);
}

}  // namespace

int main() {
  Result<std::vector<Table>> parts = SynthesizeHospitals(4);
  if (!parts.ok()) return 1;

  FederationOptions opts;
  opts.cluster_capacity = 256;
  opts.n_min = 6;
  opts.protocol.per_query_budget = {1.0, 1e-3};
  opts.protocol.sampling_rate = 0.15;
  // The ethics board grants this study a total budget of (5, 0.01): only
  // five queries at eps=1 each.
  opts.protocol.total_xi = 5.0;
  opts.protocol.total_psi = 0.01;
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts).value(), opts);
  if (!fed.ok()) return 1;
  Federation& hospitals = **fed;

  std::printf("== multi-hospital study: %zu hospitals ==\n",
              hospitals.num_providers());

  struct Study {
    const char* label;
    RangeQuery query;
  };
  std::vector<Study> studies = {
      {"working-age severe cases",
       RangeQueryBuilder(Aggregation::kSum)
           .Where(0, 25, 60)
           .Where(1, 6, 9)
           .Build()},
      {"pediatric admissions (broad)",
       RangeQueryBuilder(Aggregation::kSum).Where(0, 0, 17).Build()},
      {"long stays in ICU wards",
       RangeQueryBuilder(Aggregation::kSum)
           .Where(2, 0, 2)
           .Where(3, 21, 59)
           .Build()},
      {"elderly mild cases",
       RangeQueryBuilder(Aggregation::kSum)
           .Where(0, 70, 89)
           .Where(1, 0, 2)
           .Build()},
      {"all severe cases",
       RangeQueryBuilder(Aggregation::kSum).Where(1, 7, 9).Build()},
      // This sixth query exceeds the ethics-board budget on purpose.
      {"one study too many",
       RangeQueryBuilder(Aggregation::kSum).Where(0, 0, 89).Build()},
  };

  for (const Study& study : studies) {
    Result<QueryResponse> exact = hospitals.QueryExact(study.query);
    Result<QueryResponse> priv = hospitals.Query(study.query);
    if (!priv.ok()) {
      std::printf("%-32s REFUSED: %s\n", study.label,
                  priv.status().ToString().c_str());
      continue;
    }
    std::printf("%-32s exact=%8.0f  private=%8.0f  err=%5.2f%%  %s\n",
                study.label, exact.ok() ? exact->estimate : -1.0,
                priv->estimate,
                exact.ok()
                    ? 100.0 * RelativeError(exact->estimate, priv->estimate)
                    : -1.0,
                priv->approximated ? "(approximated)" : "(exact path)");
  }

  const FederationClient& client = hospitals.client();
  Result<PrivacyBudget> spent = client.ledger().Spent(Federation::kAnalyst);
  Result<PrivacyBudget> total = client.ledger().Total(Federation::kAnalyst);
  if (!spent.ok() || !total.ok()) return 1;
  size_t admitted = 0;
  for (const auto& r : client.audit_log().ForAnalyst(Federation::kAnalyst)) {
    if (r.kind == obs::BudgetAuditLog::Kind::kCharge) ++admitted;
  }
  std::printf("\nbudget: %zu studies admitted, eps spent %.2f/%.2f\n",
              admitted, spent->epsilon, total->epsilon);
  return 0;
}
