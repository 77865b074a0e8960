#ifndef FEDAQP_TESTS_CLIENT_UTIL_H_
#define FEDAQP_TESTS_CLIENT_UTIL_H_

// Test helpers for the one admission path: a FederationClient with a
// single analyst, synchronous Submit + Wait wrappers, and the audit-log
// count of that analyst's charges.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"

namespace fedaqp {
namespace testutil {

/// The analyst every SoloClient registers.
constexpr const char* kAnalyst = "analyst";

/// A client over `endpoints` whose one analyst, kAnalyst, holds (xi, psi)
/// — by default a grant no test exhausts. Records a test failure and
/// returns null when creation fails. (Named apart from SoloClient so
/// brace-initialized provider lists stay unambiguous.)
inline std::unique_ptr<FederationClient> SoloClientFromEndpoints(
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
    const FederationConfig& config, double xi = 1e18, double psi = 1e9) {
  FederationClient::Options opts;
  opts.protocol = config;
  opts.analysts = {{kAnalyst, xi, psi}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(std::move(endpoints), opts);
  if (!client.ok()) {
    ADD_FAILURE() << "client: " << client.status().ToString();
    return nullptr;
  }
  return std::move(client).value();
}

/// In-process SoloClient over raw providers.
inline std::unique_ptr<FederationClient> SoloClient(
    const std::vector<DataProvider*>& providers,
    const FederationConfig& config, double xi = 1e18, double psi = 1e9) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> endpoints =
      MakeInProcessEndpoints(providers);
  if (!endpoints.ok()) {
    ADD_FAILURE() << "endpoints: " << endpoints.status().ToString();
    return nullptr;
  }
  return SoloClientFromEndpoints(std::move(endpoints).value(), config, xi,
                                 psi);
}

/// A private-query spec of `analyst`.
inline QuerySpec Spec(const std::string& analyst, RangeQuery query) {
  QuerySpec spec;
  spec.analyst = analyst;
  spec.query = std::move(query);
  return spec;
}

/// Submits `query` for `analyst` and waits for the outcome.
inline Result<QueryResponse> Ask(FederationClient* client,
                                 const RangeQuery& query,
                                 const std::string& analyst = kAnalyst) {
  return client->Submit(Spec(analyst, query)).Wait();
}

/// The non-private exact baseline for `query` (a kExact spec).
inline Result<QueryResponse> AskExact(FederationClient* client,
                                      const RangeQuery& query) {
  QuerySpec spec;
  spec.query = query;
  spec.kind = QueryKind::kExact;
  return client->Submit(std::move(spec)).Wait();
}

/// Submits `queries` for `analyst` as one slice of the admission sequence
/// (SubmitAll) and waits for every outcome.
inline std::vector<BatchOutcome> AskAll(FederationClient* client,
                                        const std::vector<RangeQuery>& queries,
                                        const std::string& analyst = kAnalyst) {
  std::vector<QuerySpec> specs;
  specs.reserve(queries.size());
  for (const RangeQuery& query : queries) specs.push_back(Spec(analyst, query));
  std::vector<QueryTicket> tickets = client->SubmitAll(std::move(specs));
  return WaitAll(tickets);
}

/// Orchestrator-level specs for `queries`: private, default budget, no
/// callback — what a test driving QueryOrchestrator::ExecuteBatchSpecs
/// directly (no admission, no charge) feeds it.
inline std::vector<QueryExecSpec> ExecSpecs(
    const std::vector<RangeQuery>& queries) {
  std::vector<QueryExecSpec> specs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) specs[i].query = queries[i];
  return specs;
}

/// Successful charges the client's ledger applied for `analyst`: the
/// audit log's kCharge records.
inline size_t NumCharges(const FederationClient& client,
                         const std::string& analyst = kAnalyst) {
  size_t charges = 0;
  for (const auto& record : client.audit_log().ForAnalyst(analyst)) {
    if (record.kind == obs::BudgetAuditLog::Kind::kCharge) ++charges;
  }
  return charges;
}

/// Budget the client's ledger has charged `analyst` so far.
inline PrivacyBudget Spent(const FederationClient& client,
                           const std::string& analyst = kAnalyst) {
  Result<PrivacyBudget> spent = client.ledger().Spent(analyst);
  EXPECT_TRUE(spent.ok()) << spent.status().ToString();
  return spent.ok() ? *spent : PrivacyBudget{0.0, 0.0};
}

}  // namespace testutil
}  // namespace fedaqp

#endif  // FEDAQP_TESTS_CLIENT_UTIL_H_
