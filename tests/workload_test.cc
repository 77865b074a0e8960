// Tests for the workload substrate: distributions, data generators, query
// generation and the metric runner.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "core/federation.h"
#include "workload/datagen.h"
#include "workload/distributions.h"
#include "workload/query_gen.h"
#include "workload/workload.h"
#include "client_util.h"

namespace fedaqp {
namespace {

// --------------------------------------------------------- Distributions --

TEST(DistributionTest, UniformCoversDomain) {
  ValueDistribution dist(DistributionKind::kUniform, 10, 0.0);
  Rng rng(3);
  std::set<Value> seen;
  for (int i = 0; i < 2000; ++i) {
    Value v = dist.Sample(&rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(DistributionTest, ZipfIsHeavilySkewed) {
  ValueDistribution dist(DistributionKind::kZipf, 100, 1.5);
  Rng rng(5);
  size_t first = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (dist.Sample(&rng) == 0) ++first;
  }
  // Rank-1 mass of Zipf(1.5, 100) is ~1/zeta ~ 0.38.
  EXPECT_GT(static_cast<double>(first) / n, 0.3);
}

TEST(DistributionTest, NormalCentersWhereAsked) {
  ValueDistribution dist(DistributionKind::kNormal, 100, 0.3);
  Rng rng(7);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) {
    Value v = dist.Sample(&rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    st.Add(static_cast<double>(v));
  }
  EXPECT_NEAR(st.mean(), 30.0, 2.0);
}

TEST(DistributionTest, CategoricalSkewedPutsMassOnHead) {
  ValueDistribution dist(DistributionKind::kCategoricalSkewed, 10, 0.0);
  Rng rng(9);
  size_t head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (dist.Sample(&rng) < 2) ++head;  // head = 20% of values
  }
  EXPECT_NEAR(static_cast<double>(head) / n, 0.8, 0.02);
}

// --------------------------------------------------------------- Datagen --

TEST(DatagenTest, GenerateSyntheticRespectsSchemaAndRows) {
  SyntheticConfig cfg;
  cfg.rows = 500;
  cfg.seed = 11;
  cfg.dims = {{"x", 10, DistributionKind::kUniform, 0.0},
              {"y", 20, DistributionKind::kZipf, 1.2}};
  Result<Table> t = GenerateSynthetic(cfg);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 500u);
  EXPECT_EQ(t->schema().num_dims(), 2u);
  EXPECT_EQ(t->TotalMeasure(), 500);
  EXPECT_FALSE(GenerateSynthetic(SyntheticConfig{}).ok());  // no dims
}

TEST(DatagenTest, GenerationIsDeterministicPerSeed) {
  SyntheticConfig cfg;
  cfg.rows = 100;
  cfg.seed = 13;
  cfg.dims = {{"x", 50, DistributionKind::kZipf, 1.1}};
  Result<Table> a = GenerateSynthetic(cfg);
  Result<Table> b = GenerateSynthetic(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->num_rows(); ++i) {
    EXPECT_EQ(a->row(i).values, b->row(i).values);
  }
}

TEST(DatagenTest, CorrelatedModeLinksFirstTwoDims) {
  SyntheticConfig cfg;
  cfg.rows = 5000;
  cfg.seed = 17;
  cfg.correlate_first_two = true;
  cfg.dims = {{"x", 100, DistributionKind::kUniform, 0.0},
              {"y", 100, DistributionKind::kUniform, 0.0}};
  Result<Table> t = GenerateSynthetic(cfg);
  ASSERT_TRUE(t.ok());
  // y must track x within the jitter band.
  for (size_t i = 0; i < t->num_rows(); ++i) {
    EXPECT_NEAR(static_cast<double>(t->row(i).values[1]),
                static_cast<double>(t->row(i).values[0]), 2.0);
  }
}

TEST(DatagenTest, AdultPresetShapes) {
  SyntheticConfig cfg = AdultConfig(1000, 19);
  EXPECT_EQ(cfg.dims.size(), 15u);  // the paper's 15 dimensions
  Result<Table> t = GenerateSynthetic(cfg);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1000u);
  for (size_t d : AdultTensorDims()) EXPECT_LT(d, cfg.dims.size());
}

TEST(DatagenTest, AmazonPresetShapes) {
  SyntheticConfig cfg = AmazonConfig(1000, 23);
  EXPECT_EQ(cfg.dims.size(), 6u);  // 3 natural + 3 synthetic
  for (size_t d : AmazonTensorDims()) EXPECT_LT(d, cfg.dims.size());
}

TEST(DatagenTest, FederatedTensorsPreserveTotalMeasure) {
  SyntheticConfig cfg;
  cfg.rows = 2000;
  cfg.seed = 29;
  cfg.dims = {{"x", 30, DistributionKind::kZipf, 1.3},
              {"y", 20, DistributionKind::kUniform, 0.0},
              {"z", 10, DistributionKind::kUniform, 0.0}};
  Result<std::vector<Table>> parts = GenerateFederatedTensors(cfg, {0, 1}, 4);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 4u);
  int64_t total = 0;
  for (const auto& p : *parts) total += p.TotalMeasure();
  EXPECT_EQ(total, 2000);
}

// ------------------------------------------------------------- QueryGen --

TEST(QueryGenTest, GeneratesValidQueries) {
  Schema s;
  ASSERT_TRUE(s.AddDimension("a", 100).ok());
  ASSERT_TRUE(s.AddDimension("b", 50).ok());
  ASSERT_TRUE(s.AddDimension("c", 10).ok());
  QueryGenOptions opts;
  opts.num_dims = 2;
  RandomQueryGenerator gen(s, opts);
  for (int i = 0; i < 50; ++i) {
    Result<RangeQuery> q = gen.Next();
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->num_constrained_dims(), 2u);
    EXPECT_TRUE(q->Validate(s).ok());
  }
}

TEST(QueryGenTest, RejectsBadOptions) {
  Schema s;
  ASSERT_TRUE(s.AddDimension("a", 100).ok());
  QueryGenOptions too_many;
  too_many.num_dims = 5;
  EXPECT_FALSE(RandomQueryGenerator(s, too_many).Next().ok());
  QueryGenOptions bad_width;
  bad_width.num_dims = 1;
  bad_width.min_width_fraction = 0.9;
  bad_width.max_width_fraction = 0.5;
  EXPECT_FALSE(RandomQueryGenerator(s, bad_width).Next().ok());
}

TEST(QueryGenTest, WorkloadHonoursAdmissionPredicate) {
  Schema s;
  ASSERT_TRUE(s.AddDimension("a", 100).ok());
  QueryGenOptions opts;
  opts.num_dims = 1;
  RandomQueryGenerator gen(s, opts);
  Result<std::vector<RangeQuery>> wl = gen.Workload(
      20, [](const RangeQuery& q) { return q.ranges()[0].lo >= 10; });
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->size(), 20u);
  for (const auto& q : *wl) EXPECT_GE(q.ranges()[0].lo, 10);
}

TEST(QueryGenTest, ImpossiblePredicateFailsGracefully) {
  Schema s;
  ASSERT_TRUE(s.AddDimension("a", 100).ok());
  QueryGenOptions opts;
  opts.num_dims = 1;
  RandomQueryGenerator gen(s, opts);
  Result<std::vector<RangeQuery>> wl =
      gen.Workload(5, [](const RangeQuery&) { return false; });
  EXPECT_EQ(wl.status().code(), StatusCode::kFailedPrecondition);
}

// -------------------------------------------------------------- Workload --

TEST(WorkloadRunnerTest, MeasuresErrorAndSpeedup) {
  SyntheticConfig cfg;
  cfg.rows = 15000;
  cfg.seed = 31;
  cfg.dims = {{"a", 60, DistributionKind::kNormal, 0.5},
              {"b", 40, DistributionKind::kZipf, 1.2},
              {"c", 30, DistributionKind::kUniform, 0.0}};
  Result<std::vector<Table>> parts =
      GenerateFederatedTensors(cfg, {0, 1, 2}, 4);
  ASSERT_TRUE(parts.ok());
  FederationOptions fopts;
  fopts.cluster_capacity = 128;
  fopts.n_min = 4;
  fopts.protocol.sampling_rate = 0.25;
  fopts.protocol.per_query_budget = {2.0, 1e-3};
  fopts.protocol.total_xi = 1e6;
  fopts.protocol.total_psi = 1e3;
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts).value(), fopts);
  ASSERT_TRUE(fed.ok());

  QueryGenOptions qopts;
  qopts.num_dims = 2;
  qopts.seed = 37;
  RandomQueryGenerator gen((*fed)->schema(), qopts);
  Result<std::vector<RangeQuery>> queries = gen.Workload(10);
  ASSERT_TRUE(queries.ok());

  // A fresh client over the facade's providers, with the facade's
  // protocol options as given (the facade's own client derives its seed).
  std::unique_ptr<FederationClient> client =
      testutil::SoloClient((*fed)->provider_ptrs(), fopts.protocol);
  ASSERT_NE(client, nullptr);
  Result<std::vector<QueryMeasurement>> results =
      RunWorkload(client.get(), testutil::kAnalyst, *queries);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 10u);
  for (const auto& m : *results) {
    EXPECT_GE(m.relative_error, 0.0);
    EXPECT_GT(m.exact_rows_scanned, 0u);
  }
  WorkloadMetrics metrics = Summarize(*results);
  EXPECT_EQ(metrics.queries, 10u);
  EXPECT_GE(metrics.mean_relative_error, 0.0);
  EXPECT_GT(metrics.mean_work_ratio, 1.0)
      << "approximation must scan fewer rows than the exact plan";
}

TEST(WorkloadRunnerTest, SummarizeEmptyIsZero) {
  WorkloadMetrics m = Summarize({});
  EXPECT_EQ(m.queries, 0u);
  EXPECT_EQ(m.mean_relative_error, 0.0);
}

}  // namespace
}  // namespace fedaqp
