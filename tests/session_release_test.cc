// Session lifecycle of the two-round-trip protocol: Open creates a
// provider session and the estimate call ends it, so a finished query
// leaves nothing open and sends no EndQuery. Only queries that fail or
// are cancelled after their summary release sessions explicitly. Every
// case runs against in-process endpoints and against loopback
// RpcProviderServers, and checks num_open_sessions() on both.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/in_process_endpoint.h"
#include "federation/orchestrator.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "workload/datagen.h"
#include "client_util.h"

namespace fedaqp {
namespace {

std::unique_ptr<DataProvider> MakeProvider(size_t rows, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"a", 200, DistributionKind::kNormal, 0.5},
              {"b", 100, DistributionKind::kZipf, 1.2}};
  Result<Table> t = GenerateSynthetic(cfg);
  EXPECT_TRUE(t.ok());
  Result<Table> tensor = t->BuildCountTensor({0, 1});
  EXPECT_TRUE(tensor.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = 128;
  popts.storage.layout = ClusterLayout::kShuffled;
  popts.storage.shuffle_seed = seed;
  popts.n_min = 4;
  popts.seed = seed * 3 + 1;
  Result<std::unique_ptr<DataProvider>> p = DataProvider::Create(*tensor, popts);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

FederationConfig Config(BatchScheduler scheduler) {
  FederationConfig config;
  config.per_query_budget = {1.0, 1e-3};
  config.sampling_rate = 0.3;
  config.seed = 77;
  config.num_threads = 4;
  config.scheduler = scheduler;
  return config;
}

/// Wide ranges: every provider takes the approximate path.
std::vector<RangeQuery> Batch() {
  return {RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build(),
          RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 150).Build(),
          RangeQueryBuilder(Aggregation::kCount).Where(1, 0, 99).Build()};
}

/// Forwarding decorator with per-call rewrite hooks, for injecting
/// provider-side failures and cancellations at chosen protocol steps.
class HookedEndpoint final : public ProviderEndpoint {
 public:
  explicit HookedEndpoint(std::shared_ptr<ProviderEndpoint> inner)
      : inner_(std::move(inner)) {}

  /// Run before the call is forwarded; may rewrite the request.
  std::function<void(OpenRequest*)> before_open;
  std::function<void(ApproximateRequest*)> before_approximate;
  /// Run after the forwarded Open returns.
  std::function<void()> after_open;

  const EndpointInfo& info() const override { return inner_->info(); }
  Result<CoverReply> Cover(const CoverRequest& r) override {
    return inner_->Cover(r);
  }
  Result<SummaryReply> PublishSummary(const SummaryRequest& r) override {
    return inner_->PublishSummary(r);
  }
  Result<OpenReply> Open(const OpenRequest& r) override {
    OpenRequest req = r;
    if (before_open) before_open(&req);
    Result<OpenReply> reply = inner_->Open(req);
    if (after_open) after_open();
    return reply;
  }
  Result<EstimateReply> Approximate(const ApproximateRequest& r) override {
    ApproximateRequest req = r;
    if (before_approximate) before_approximate(&req);
    return inner_->Approximate(req);
  }
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& r) override {
    return inner_->ExactAnswer(r);
  }
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& r) override {
    return inner_->ExactFullScan(r);
  }
  void EndQuery(uint64_t id) override { inner_->EndQuery(id); }
  void IssueAsync(std::function<void()> call) override {
    inner_->IssueAsync(std::move(call));
  }
  size_t max_concurrent_calls() const override {
    return inner_->max_concurrent_calls();
  }

 private:
  std::shared_ptr<ProviderEndpoint> inner_;
};

/// Two providers, reachable in process and through loopback servers.
class SessionReleaseTest : public ::testing::Test {
 protected:
  /// One way of reaching the providers, plus the count of sessions open
  /// on its side.
  struct Path {
    std::string name;
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
    std::function<size_t()> open_sessions;
    bool remote = false;
  };

  void SetUp() override {
    providers_.push_back(MakeProvider(20000, 3));
    providers_.push_back(MakeProvider(30000, 5));
    for (auto& p : providers_) {
      Result<std::unique_ptr<RpcProviderServer>> server =
          RpcProviderServer::Start(p.get());
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      servers_.push_back(std::move(server).value());
    }
  }

  std::vector<Path> Paths() {
    std::vector<Path> paths(2);
    paths[0].name = "in-process";
    std::vector<std::shared_ptr<InProcessEndpoint>> local;
    for (auto& p : providers_) {
      local.push_back(std::make_shared<InProcessEndpoint>(p.get()));
      paths[0].endpoints.push_back(local.back());
    }
    paths[0].open_sessions = [local] {
      size_t n = 0;
      for (const auto& e : local) n += e->num_open_sessions();
      return n;
    };
    paths[1].name = "loopback";
    paths[1].remote = true;
    for (auto& s : servers_) {
      Result<std::shared_ptr<RemoteEndpoint>> remote =
          RemoteEndpoint::Connect("127.0.0.1", s->port());
      EXPECT_TRUE(remote.ok()) << remote.status().ToString();
      if (remote.ok()) paths[1].endpoints.push_back(*remote);
    }
    paths[1].open_sessions = [this] {
      size_t n = 0;
      for (const auto& s : servers_) n += s->num_open_sessions();
      return n;
    };
    return paths;
  }

  /// Request frames of `method` received by all servers so far.
  uint64_t Frames(RpcMethod method) const {
    uint64_t n = 0;
    for (const auto& s : servers_) n += s->frames_received(method);
    return n;
  }

  /// Wraps each endpoint of `path` in a HookedEndpoint.
  static std::vector<std::shared_ptr<HookedEndpoint>> Hook(const Path& path) {
    std::vector<std::shared_ptr<HookedEndpoint>> hooked;
    for (const auto& e : path.endpoints) {
      hooked.push_back(std::make_shared<HookedEndpoint>(e));
    }
    return hooked;
  }

  static std::vector<std::shared_ptr<ProviderEndpoint>> Upcast(
      const std::vector<std::shared_ptr<HookedEndpoint>>& hooked) {
    return {hooked.begin(), hooked.end()};
  }

  std::vector<std::unique_ptr<DataProvider>> providers_;
  std::vector<std::unique_ptr<RpcProviderServer>> servers_;
};

TEST_F(SessionReleaseTest, FinishedBatchLeavesNoSessionsAndSendsNoEndQuery) {
  const std::vector<RangeQuery> batch = Batch();
  for (BatchScheduler scheduler :
       {BatchScheduler::kTaskGraph, BatchScheduler::kPhaseBarrier}) {
    for (Path& path : Paths()) {
      const uint64_t opens = Frames(RpcMethod::kOpen);
      const uint64_t estimates =
          Frames(RpcMethod::kApproximate) + Frames(RpcMethod::kExactAnswer);
      Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
          path.endpoints, Config(scheduler));
      ASSERT_TRUE(orch.ok()) << orch.status().ToString();
      const std::vector<QueryExecSpec> specs = testutil::ExecSpecs(batch);
      for (const BatchOutcome& out : orch->ExecuteBatchSpecs(specs)) {
        ASSERT_TRUE(out.ok()) << path.name << ": " << out.status.ToString();
      }
      EXPECT_EQ(path.open_sessions(), 0u) << path.name;
      if (path.remote) {
        // Exactly two sessionful round trips per provider per query.
        const uint64_t calls = batch.size() * servers_.size();
        EXPECT_EQ(Frames(RpcMethod::kOpen) - opens, calls);
        EXPECT_EQ(Frames(RpcMethod::kApproximate) +
                      Frames(RpcMethod::kExactAnswer) - estimates,
                  calls);
      }
    }
  }
  EXPECT_EQ(Frames(RpcMethod::kEndQuery), 0u);
  EXPECT_EQ(Frames(RpcMethod::kCover), 0u);
  EXPECT_EQ(Frames(RpcMethod::kPublishSummary), 0u);
}

TEST_F(SessionReleaseTest, QueryCancelledAfterItsSummaryLeavesNoSessions) {
  for (BatchScheduler scheduler :
       {BatchScheduler::kTaskGraph, BatchScheduler::kPhaseBarrier}) {
    for (Path& path : Paths()) {
      std::vector<QueryExecSpec> specs(1);
      specs[0].query = Batch()[0];
      specs[0].cancel = std::make_shared<QueryCancelToken>();
      std::shared_ptr<QueryCancelToken> token = specs[0].cancel;
      std::vector<std::shared_ptr<HookedEndpoint>> hooked = Hook(path);
      // The analyst cancels as soon as the first provider has published.
      for (auto& h : hooked) h->after_open = [token] { token->Cancel(); };
      Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
          Upcast(hooked), Config(scheduler));
      ASSERT_TRUE(orch.ok());
      const uint64_t end_queries = Frames(RpcMethod::kEndQuery);
      std::vector<BatchOutcome> outcomes = orch->ExecuteBatchSpecs(specs);
      EXPECT_EQ(outcomes[0].status.code(), StatusCode::kCancelled) << path.name;
      EXPECT_EQ(token->stage(), QueryStage::kSummaryPublished);
      EXPECT_EQ(path.open_sessions(), 0u) << path.name;
      if (path.remote) {
        // No estimate will come, so each provider gets an EndQuery.
        EXPECT_EQ(Frames(RpcMethod::kEndQuery) - end_queries,
                  servers_.size());
      }
    }
  }
  EXPECT_EQ(Frames(RpcMethod::kApproximate), 0u);
}

TEST_F(SessionReleaseTest, MidBatchProviderFailureLeavesNoSessions) {
  for (BatchScheduler scheduler :
       {BatchScheduler::kTaskGraph, BatchScheduler::kPhaseBarrier}) {
    for (Path& path : Paths()) {
      std::vector<std::shared_ptr<HookedEndpoint>> hooked = Hook(path);
      // The second provider refuses the middle query's estimate: a zero
      // sampling epsilon fails inside the provider's EM sampler.
      hooked[1]->before_approximate = [](ApproximateRequest* req) {
        if (req->query_id == 2) req->eps_sampling = 0.0;
      };
      Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
          Upcast(hooked), Config(scheduler));
      ASSERT_TRUE(orch.ok());
      std::vector<BatchOutcome> outcomes =
          orch->ExecuteBatchSpecs(testutil::ExecSpecs(Batch()));
      EXPECT_TRUE(outcomes[0].ok()) << path.name;
      EXPECT_EQ(outcomes[1].status.code(), StatusCode::kInvalidArgument)
          << path.name << ": " << outcomes[1].status.ToString();
      EXPECT_TRUE(outcomes[2].ok()) << path.name;
      EXPECT_EQ(path.open_sessions(), 0u) << path.name;
    }
  }
  // Every session ended with its estimate call, failed or not.
  EXPECT_EQ(Frames(RpcMethod::kEndQuery), 0u);
}

TEST_F(SessionReleaseTest, AllocationFailureLeavesNoSessions) {
  for (BatchScheduler scheduler :
       {BatchScheduler::kTaskGraph, BatchScheduler::kPhaseBarrier}) {
    for (Path& path : Paths()) {
      std::vector<std::shared_ptr<HookedEndpoint>> hooked = Hook(path);
      // The first provider's summary fails for the middle query, so the
      // aggregator cannot allocate it; the second provider's session is
      // open and must be ended without an estimate.
      hooked[0]->before_open = [](OpenRequest* req) {
        if (req->cover.query_id == 2) req->eps_allocation = 0.0;
      };
      Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
          Upcast(hooked), Config(scheduler));
      ASSERT_TRUE(orch.ok());
      const uint64_t end_queries = Frames(RpcMethod::kEndQuery);
      std::vector<BatchOutcome> outcomes =
          orch->ExecuteBatchSpecs(testutil::ExecSpecs(Batch()));
      EXPECT_TRUE(outcomes[0].ok()) << path.name;
      EXPECT_EQ(outcomes[1].status.code(), StatusCode::kInvalidArgument)
          << path.name << ": " << outcomes[1].status.ToString();
      EXPECT_TRUE(outcomes[2].ok()) << path.name;
      EXPECT_EQ(path.open_sessions(), 0u) << path.name;
      if (path.remote) {
        EXPECT_EQ(Frames(RpcMethod::kEndQuery) - end_queries, 1u);
      }
    }
  }
}

TEST_F(SessionReleaseTest, SecondEstimateOnAFinishedSessionIsRefused) {
  OpenRequest open;
  open.cover = CoverRequest{5, 17, Batch()[0]};
  open.eps_allocation = 0.3;
  ApproximateRequest approx;
  approx.query_id = 5;
  approx.sample_size = 3;
  approx.eps_sampling = 0.2;
  approx.eps_estimate = 0.5;
  approx.delta = 1e-3;
  ExactAnswerRequest exact;
  exact.query_id = 5;
  exact.eps_estimate = 0.5;
  for (Path& path : Paths()) {
    ProviderEndpoint* endpoint = path.endpoints[0].get();
    Result<OpenReply> opened = endpoint->Open(open);
    ASSERT_TRUE(opened.ok()) << path.name << ": " << opened.status().ToString();
    EXPECT_TRUE(opened->cover.should_approximate);
    EXPECT_EQ(path.open_sessions(), 1u) << path.name;
    EXPECT_TRUE(endpoint->Approximate(approx).ok()) << path.name;
    EXPECT_EQ(path.open_sessions(), 0u) << path.name;
    EXPECT_EQ(endpoint->Approximate(approx).status().code(),
              StatusCode::kFailedPrecondition)
        << path.name;
    EXPECT_EQ(endpoint->ExactAnswer(exact).status().code(),
              StatusCode::kFailedPrecondition)
        << path.name;
    EXPECT_EQ(path.open_sessions(), 0u) << path.name;
  }
}

TEST_F(SessionReleaseTest, FailedOpenLeavesNoSession) {
  OpenRequest open;
  open.cover = CoverRequest{9, 23, Batch()[0]};
  open.eps_allocation = 0.0;  // The provider refuses a zero-epsilon summary.
  for (Path& path : Paths()) {
    Result<OpenReply> refused = path.endpoints[0]->Open(open);
    ASSERT_FALSE(refused.ok()) << path.name;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(path.open_sessions(), 0u) << path.name;
  }
}

TEST(RpcOpenSessionCapTest, OpenCountsTowardTheCapAndTheEstimateFreesIt) {
  std::unique_ptr<DataProvider> provider = MakeProvider(20000, 3);
  RpcServerOptions opts;
  opts.max_sessions_per_connection = 1;
  Result<std::unique_ptr<RpcProviderServer>> server =
      RpcProviderServer::Start(provider.get(), opts);
  ASSERT_TRUE(server.ok());
  Result<std::shared_ptr<RemoteEndpoint>> client =
      RemoteEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  OpenRequest open;
  open.cover = CoverRequest{1, 5, Batch()[0]};
  // A failed Open holds no slot on the connection.
  open.eps_allocation = 0.0;
  ASSERT_FALSE((*client)->Open(open).ok());
  open.eps_allocation = 0.3;
  ASSERT_TRUE((*client)->Open(open).ok());
  // The one slot is taken.
  open.cover.query_id = 2;
  Result<OpenReply> refused = (*client)->Open(open);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // An invalid query is refused before it can open anything.
  OpenRequest bad = open;
  bad.cover.query = RangeQueryBuilder(Aggregation::kCount).Where(99, 0, 1).Build();
  EXPECT_EQ((*client)->Open(bad).status().code(), StatusCode::kOutOfRange);
  // The estimate ends query 1's session and frees the slot.
  ApproximateRequest approx;
  approx.query_id = 1;
  approx.sample_size = 3;
  approx.eps_sampling = 0.2;
  approx.eps_estimate = 0.5;
  approx.delta = 1e-3;
  ASSERT_TRUE((*client)->Approximate(approx).ok());
  EXPECT_EQ((*server)->num_open_sessions(), 0u);
  EXPECT_TRUE((*client)->Open(open).ok());
  EXPECT_EQ((*server)->num_open_sessions(), 1u);
}

}  // namespace
}  // namespace fedaqp
