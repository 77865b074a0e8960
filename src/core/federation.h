#ifndef FEDAQP_CORE_FEDERATION_H_
#define FEDAQP_CORE_FEDERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/endpoint.h"
#include "exec/federation_client.h"
#include "federation/orchestrator.h"
#include "federation/provider.h"
#include "storage/table.h"

namespace fedaqp {

class RpcProviderServer;

/// The library's primary entry point: a private federation over
/// horizontally partitioned tables answering COUNT/SUM range queries with
/// the paper's end-to-end-DP approximate protocol.
///
/// Typical usage (see examples/quickstart.cc):
///
///   FederationOptions opts;
///   opts.cluster_capacity = 512;
///   auto fed = Federation::Open(std::move(partitions), opts);
///   auto q = RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 40).Build();
///   auto resp = fed->Query(q);          // private approximate answer
///   auto truth = fed->QueryExact(q);    // non-private baseline
///
/// Every private query runs through the federation's FederationClient and
/// is charged to one analyst, kAnalyst, whose grant is
/// `protocol.total_xi/total_psi`. Derived queries (PrivateAverage, ...)
/// take `&fed->client()` and kAnalyst, so they spend the same grant.
class Federation;

/// Options for Federation::Open.
struct FederationOptions {
  /// Shared cluster capacity S (all providers must use the same value).
  size_t cluster_capacity = 1024;
  /// Cluster layout used when ingesting partitions.
  ClusterLayout layout = ClusterLayout::kSequential;
  /// Per-provider approximation threshold N_min.
  size_t n_min = 4;
  /// Public bound on one individual's SUM contribution (exact-path
  /// sensitivity).
  double sum_sensitivity_bound = 1.0;
  /// Protocol/runtime configuration (budget, split, sampling rate, mode,
  /// network model, analyst grant).
  FederationConfig protocol;
  /// Master seed; providers and aggregator derive their streams from it.
  uint64_t seed = 1234;
};

class Federation {
 public:
  /// The analyst every Query/QueryBatch charges, registered on client()
  /// with FederationOptions::protocol.total_xi/total_psi.
  static constexpr const char* kAnalyst = "analyst";

  /// Builds one provider per partition (offline phase: clustering +
  /// Algorithm-1 metadata) and wires the online protocol around them.
  static Result<std::unique_ptr<Federation>> Open(
      std::vector<Table> partitions, const FederationOptions& options);

  /// Opens one provider per compressed mapped store file (see
  /// ClusterStore::SaveMapped): clusters stay on disk and decode lazily
  /// per scan, so the offline clustering cost — and the resident copy of
  /// the data — is skipped. All stores must share a schema, and
  /// `options.cluster_capacity`/`layout` are ignored in favor of what each
  /// file records.
  static Result<std::unique_ptr<Federation>> OpenMapped(
      const std::vector<std::string>& store_paths,
      const FederationOptions& options);

  /// Executes the private approximate protocol for kAnalyst, charging
  /// their grant (Submit + Wait on client()).
  Result<QueryResponse> Query(const RangeQuery& query);

  /// Executes `queries` as one slice of the admission sequence: each is
  /// admitted (validated, then charged to kAnalyst) in order, and the
  /// admitted set runs with provider work pipelined across the pool
  /// (FederationOptions::protocol.num_threads). Outcomes align with
  /// `queries` (SubmitAll + WaitAll on client()).
  std::vector<BatchOutcome> QueryBatch(const std::vector<RangeQuery>& queries);

  /// Plain-text exact execution (a kExact spec: baseline, no privacy
  /// spent).
  Result<QueryResponse> QueryExact(const RangeQuery& query);

  /// Message-interface views of this federation's providers, for wiring
  /// another FederationClient (other analysts, a shared ledger, a cache)
  /// over the same offline state. The federation must outlive the
  /// returned endpoints.
  std::vector<std::shared_ptr<ProviderEndpoint>> MakeEndpoints();

  /// Serves each provider over the wire protocol on base_port,
  /// base_port + 1, ... (base_port 0 picks an ephemeral port per
  /// provider; read the actual ones back from the servers). A remote
  /// coordinator reaches the same offline state via
  /// RemoteEndpoint::ConnectAll. The federation must outlive the servers;
  /// stop (or destroy) them before it goes away.
  Result<std::vector<std::unique_ptr<RpcProviderServer>>> Serve(
      uint16_t base_port);

  /// The public schema shared by every provider.
  const Schema& schema() const;

  /// The session layer every Query/QueryBatch/QueryExact goes through.
  /// Its ledger() and audit_log() hold kAnalyst's spend; register more
  /// analysts on it to share this federation's providers.
  FederationClient& client() { return *client_; }

  size_t num_providers() const { return providers_.size(); }
  DataProvider* provider(size_t i) { return providers_[i].get(); }
  /// Raw pointers to all providers (for baselines and the attack harness).
  std::vector<DataProvider*> provider_ptrs();

  /// Total metadata footprint across providers in bytes (paper §6.1).
  size_t MetadataBytes() const;

 private:
  explicit Federation(std::vector<std::unique_ptr<DataProvider>> providers)
      : providers_(std::move(providers)) {}

  /// Builds client_ over providers_ (shared tail of Open/OpenMapped).
  static Result<std::unique_ptr<Federation>> Finish(
      std::vector<std::unique_ptr<DataProvider>> providers,
      FederationConfig protocol);

  std::vector<std::unique_ptr<DataProvider>> providers_;
  /// Declared after providers_ so it is destroyed (drained) first.
  std::unique_ptr<FederationClient> client_;
};

}  // namespace fedaqp

#endif  // FEDAQP_CORE_FEDERATION_H_
