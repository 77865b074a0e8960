// End-to-end integration tests through the public Federation facade.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/fedaqp.h"
#include "client_util.h"

namespace fedaqp {
namespace {

std::unique_ptr<Federation> OpenSmallFederation(
    ReleaseMode mode = ReleaseMode::kLocalDp, double sampling_rate = 0.25,
    PrivacyBudget budget = {1.5, 1e-3}) {
  SyntheticConfig cfg;
  cfg.rows = 24000;
  cfg.seed = 404;
  cfg.dims = {{"age", 74, DistributionKind::kNormal, 0.3},
              {"dept", 30, DistributionKind::kZipf, 1.3},
              {"score", 50, DistributionKind::kUniform, 0.0}};
  Result<std::vector<Table>> parts =
      GenerateFederatedTensors(cfg, {0, 1, 2}, 4);
  EXPECT_TRUE(parts.ok());
  FederationOptions opts;
  opts.cluster_capacity = 128;
  opts.n_min = 4;
  opts.protocol.mode = mode;
  opts.protocol.sampling_rate = sampling_rate;
  opts.protocol.per_query_budget = budget;
  opts.protocol.total_xi = 1e6;
  opts.protocol.total_psi = 1e3;
  opts.seed = 777;
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts).value(), opts);
  EXPECT_TRUE(fed.ok());
  return std::move(fed).value();
}

TEST(IntegrationTest, OpenValidates) {
  EXPECT_FALSE(Federation::Open({}, FederationOptions{}).ok());
}

TEST(IntegrationTest, QuickstartFlow) {
  std::unique_ptr<Federation> fed = OpenSmallFederation();
  ASSERT_NE(fed, nullptr);
  EXPECT_EQ(fed->num_providers(), 4u);
  EXPECT_EQ(fed->schema().num_dims(), 3u);
  EXPECT_GT(fed->MetadataBytes(), 0u);

  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 20, 60)
                     .Where(1, 0, 20)
                     .Build();
  Result<QueryResponse> exact = fed->QueryExact(q);
  Result<QueryResponse> priv = fed->Query(q);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(priv.ok());
  EXPECT_GT(exact->estimate, 0.0);
  // Private answer is in the right ballpark (generous: sampling + noise).
  EXPECT_LT(RelativeError(exact->estimate, priv->estimate), 0.8);
  // Privacy was spent on the private path only.
  EXPECT_DOUBLE_EQ(
      testutil::Spent(fed->client(), Federation::kAnalyst).epsilon, 1.5);
  EXPECT_EQ(testutil::NumCharges(fed->client(), Federation::kAnalyst), 1u);
}

TEST(IntegrationTest, RepeatedQueriesConvergeNearTruth) {
  std::unique_ptr<Federation> fed =
      OpenSmallFederation(ReleaseMode::kLocalDp, 0.35, {2.0, 1e-3});
  ASSERT_NE(fed, nullptr);
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                     .Where(0, 10, 60)
                     .Where(2, 5, 45)
                     .Build();
  Result<QueryResponse> exact = fed->QueryExact(q);
  ASSERT_TRUE(exact.ok());
  double acc = 0.0;
  const int reps = 20;
  for (int i = 0; i < reps; ++i) {
    Result<QueryResponse> r = fed->Query(q);
    ASSERT_TRUE(r.ok());
    acc += r->estimate;
  }
  EXPECT_LT(RelativeError(exact->estimate, acc / reps), 0.25);
}

TEST(IntegrationTest, SmcModeEndToEnd) {
  std::unique_ptr<Federation> fed =
      OpenSmallFederation(ReleaseMode::kSmc, 0.35, {2.0, 1e-3});
  ASSERT_NE(fed, nullptr);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 15, 55)
                     .Build();
  Result<QueryResponse> exact = fed->QueryExact(q);
  ASSERT_TRUE(exact.ok());
  double acc = 0.0;
  const int reps = 15;
  for (int i = 0; i < reps; ++i) {
    Result<QueryResponse> r = fed->Query(q);
    ASSERT_TRUE(r.ok());
    acc += r->estimate;
  }
  EXPECT_LT(RelativeError(exact->estimate, acc / reps), 0.3);
}

TEST(IntegrationTest, CountAndSumAgreeOnTensorSemantics) {
  std::unique_ptr<Federation> fed = OpenSmallFederation();
  ASSERT_NE(fed, nullptr);
  // On a count tensor, SUM(Measure) >= COUNT(cells) for any range.
  RangeQuery count_q =
      RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 50).Build();
  RangeQuery sum_q =
      RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 50).Build();
  Result<QueryResponse> c = fed->QueryExact(count_q);
  Result<QueryResponse> s = fed->QueryExact(sum_q);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_GE(s->estimate, c->estimate);
}

TEST(IntegrationTest, WorkloadOverFacadeProviders) {
  std::unique_ptr<Federation> fed =
      OpenSmallFederation(ReleaseMode::kLocalDp, 0.3, {2.0, 1e-3});
  ASSERT_NE(fed, nullptr);
  QueryGenOptions qopts;
  qopts.num_dims = 2;
  qopts.seed = 505;
  RandomQueryGenerator gen(fed->schema(), qopts);
  Result<std::vector<RangeQuery>> queries = gen.Workload(8);
  ASSERT_TRUE(queries.ok());
  FederationConfig config;
  config.sampling_rate = 0.3;
  config.per_query_budget = {2.0, 1e-3};
  std::unique_ptr<FederationClient> client =
      testutil::SoloClient(fed->provider_ptrs(), config);
  ASSERT_NE(client, nullptr);
  Result<std::vector<QueryMeasurement>> ms =
      RunWorkload(client.get(), testutil::kAnalyst, *queries);
  ASSERT_TRUE(ms.ok());
  WorkloadMetrics metrics = Summarize(*ms);
  EXPECT_GT(metrics.mean_work_ratio, 1.5);
  EXPECT_LT(metrics.median_relative_error, 0.6);
}

TEST(IntegrationTest, MetadataFootprintScalesWithClusters) {
  std::unique_ptr<Federation> small = OpenSmallFederation();
  ASSERT_NE(small, nullptr);
  size_t clusters = 0;
  for (size_t i = 0; i < small->num_providers(); ++i) {
    clusters += small->provider(i)->store().num_clusters();
  }
  // KB-per-cluster scale, as reported in §6.1 of the paper.
  double per_cluster = static_cast<double>(small->MetadataBytes()) /
                       static_cast<double>(clusters);
  EXPECT_GT(per_cluster, 100.0);
  EXPECT_LT(per_cluster, 100.0 * 1024.0);
}

}  // namespace
}  // namespace fedaqp
