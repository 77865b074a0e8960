#include "core/federation.h"

#include "common/rng.h"
#include "exec/in_process_endpoint.h"
#include "rpc/server.h"

namespace fedaqp {

Result<std::unique_ptr<Federation>> Federation::Open(
    std::vector<Table> partitions, const FederationOptions& options) {
  if (partitions.empty()) {
    return Status::InvalidArgument("federation: need at least one partition");
  }
  Rng seeder(options.seed);
  std::vector<std::unique_ptr<DataProvider>> providers;
  providers.reserve(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    DataProvider::Options popts;
    popts.storage.cluster_capacity = options.cluster_capacity;
    popts.storage.layout = options.layout;
    popts.storage.shuffle_seed = seeder.NextU64();
    // The federation-level sharding knob becomes each provider's default;
    // every consumer (ShardedScanExecutor's constructor) clamps 0 to 1,
    // and the orchestrator then shares its pool down.
    popts.storage.num_scan_shards = options.protocol.num_scan_shards;
    popts.n_min = options.n_min;
    popts.sum_sensitivity_bound = options.sum_sensitivity_bound;
    popts.seed = seeder.NextU64();
    popts.name = "provider-" + std::to_string(i);
    FEDAQP_ASSIGN_OR_RETURN(std::unique_ptr<DataProvider> provider,
                            DataProvider::Create(partitions[i], popts));
    providers.push_back(std::move(provider));
  }

  FederationConfig protocol = options.protocol;
  protocol.seed = seeder.NextU64();
  return Finish(std::move(providers), protocol);
}

Result<std::unique_ptr<Federation>> Federation::Finish(
    std::vector<std::unique_ptr<DataProvider>> providers,
    FederationConfig protocol) {
  std::unique_ptr<Federation> fed(new Federation(std::move(providers)));
  FederationClient::Options opts;
  opts.protocol = protocol;
  opts.analysts = {{kAnalyst, protocol.total_xi, protocol.total_psi}};
  FEDAQP_ASSIGN_OR_RETURN(fed->client_,
                          FederationClient::Create(fed->provider_ptrs(), opts));
  return fed;
}

Result<std::unique_ptr<Federation>> Federation::OpenMapped(
    const std::vector<std::string>& store_paths,
    const FederationOptions& options) {
  if (store_paths.empty()) {
    return Status::InvalidArgument("federation: need at least one store file");
  }
  Rng seeder(options.seed);
  std::vector<std::unique_ptr<DataProvider>> providers;
  providers.reserve(store_paths.size());
  for (size_t i = 0; i < store_paths.size(); ++i) {
    FEDAQP_ASSIGN_OR_RETURN(
        ClusterStore store,
        ClusterStore::OpenMapped(store_paths[i],
                                 options.protocol.num_scan_shards));
    if (i > 0 && !(store.schema() == providers[0]->store().schema())) {
      return Status::InvalidArgument(
          "federation: mapped store '" + store_paths[i] +
          "' schema differs from '" + store_paths[0] + "'");
    }
    DataProvider::Options popts;
    popts.n_min = options.n_min;
    popts.sum_sensitivity_bound = options.sum_sensitivity_bound;
    popts.seed = seeder.NextU64();
    popts.name = "provider-" + std::to_string(i);
    FEDAQP_ASSIGN_OR_RETURN(
        std::unique_ptr<DataProvider> provider,
        DataProvider::CreateFromStore(std::move(store), popts));
    providers.push_back(std::move(provider));
  }

  FederationConfig protocol = options.protocol;
  protocol.seed = seeder.NextU64();
  return Finish(std::move(providers), protocol);
}

Result<QueryResponse> Federation::Query(const RangeQuery& query) {
  QuerySpec spec;
  spec.analyst = kAnalyst;
  spec.query = query;
  return client_->Submit(std::move(spec)).Wait();
}

std::vector<BatchOutcome> Federation::QueryBatch(
    const std::vector<RangeQuery>& queries) {
  std::vector<QuerySpec> specs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    specs[i].analyst = kAnalyst;
    specs[i].query = queries[i];
  }
  std::vector<QueryTicket> tickets = client_->SubmitAll(std::move(specs));
  return WaitAll(tickets);
}

std::vector<std::shared_ptr<ProviderEndpoint>> Federation::MakeEndpoints() {
  // Providers are owned and non-null by construction.
  return MakeInProcessEndpoints(provider_ptrs()).value();
}

Result<std::vector<std::unique_ptr<RpcProviderServer>>> Federation::Serve(
    uint16_t base_port) {
  if (base_port != 0 &&
      static_cast<size_t>(base_port) + providers_.size() - 1 > 65535) {
    return Status::InvalidArgument(
        "federation: port range " + std::to_string(base_port) + "+" +
        std::to_string(providers_.size()) + " providers exceeds 65535");
  }
  std::vector<std::unique_ptr<RpcProviderServer>> servers;
  servers.reserve(providers_.size());
  for (size_t i = 0; i < providers_.size(); ++i) {
    RpcServerOptions opts;
    opts.port =
        base_port == 0 ? 0 : static_cast<uint16_t>(base_port + i);
    FEDAQP_ASSIGN_OR_RETURN(std::unique_ptr<RpcProviderServer> server,
                            RpcProviderServer::Start(providers_[i].get(), opts));
    servers.push_back(std::move(server));
  }
  return servers;
}

Result<QueryResponse> Federation::QueryExact(const RangeQuery& query) {
  QuerySpec spec;
  spec.query = query;
  spec.kind = QueryKind::kExact;
  return client_->Submit(std::move(spec)).Wait();
}

const Schema& Federation::schema() const {
  return providers_[0]->store().schema();
}

std::vector<DataProvider*> Federation::provider_ptrs() {
  std::vector<DataProvider*> out;
  out.reserve(providers_.size());
  for (auto& p : providers_) out.push_back(p.get());
  return out;
}

size_t Federation::MetadataBytes() const {
  size_t total = 0;
  for (const auto& p : providers_) total += p->metadata().TotalSizeBytes();
  return total;
}

}  // namespace fedaqp
