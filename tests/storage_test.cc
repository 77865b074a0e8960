// Unit tests for src/storage: schema, tables, count tensors, range queries,
// clusters, cluster stores, and the compressed mmap-persistent store format.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "storage/cluster_store.h"
#include "storage/range_query.h"
#include "storage/scan_kernel.h"
#include "storage/store_file.h"
#include "storage/table.h"

namespace fedaqp {
namespace {

Schema TwoDimSchema() {
  Schema s;
  EXPECT_TRUE(s.AddDimension("age", 100).ok());
  EXPECT_TRUE(s.AddDimension("income", 50).ok());
  return s;
}

Table SmallTable() {
  Table t(TwoDimSchema());
  // (age, income)
  EXPECT_TRUE(t.AppendValues({20, 10}).ok());
  EXPECT_TRUE(t.AppendValues({25, 10}).ok());
  EXPECT_TRUE(t.AppendValues({25, 20}).ok());
  EXPECT_TRUE(t.AppendValues({70, 45}).ok());
  return t;
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, AddAndLookup) {
  Schema s = TwoDimSchema();
  EXPECT_EQ(s.num_dims(), 2u);
  EXPECT_EQ(*s.IndexOf("age"), 0u);
  EXPECT_EQ(*s.IndexOf("income"), 1u);
  EXPECT_EQ(s.IndexOf("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(s.dim(1).domain_size, 50);
}

TEST(SchemaTest, RejectsDuplicatesAndBadDomains) {
  Schema s;
  EXPECT_TRUE(s.AddDimension("a", 10).ok());
  EXPECT_FALSE(s.AddDimension("a", 5).ok());
  EXPECT_FALSE(s.AddDimension("b", 0).ok());
  EXPECT_FALSE(s.AddDimension("", 5).ok());
}

TEST(SchemaTest, InDomain) {
  Schema s = TwoDimSchema();
  EXPECT_TRUE(s.InDomain(0, 0));
  EXPECT_TRUE(s.InDomain(0, 99));
  EXPECT_FALSE(s.InDomain(0, 100));
  EXPECT_FALSE(s.InDomain(0, -1));
  EXPECT_FALSE(s.InDomain(5, 0));
}

TEST(SchemaTest, ProjectKeepsOrderAndNames) {
  Schema s = TwoDimSchema();
  Result<Schema> p = s.Project({1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_dims(), 1u);
  EXPECT_EQ(p->dim(0).name, "income");
  EXPECT_FALSE(s.Project({5}).ok());
}

TEST(SchemaTest, EqualityAndToString) {
  EXPECT_TRUE(TwoDimSchema() == TwoDimSchema());
  Schema other;
  ASSERT_TRUE(other.AddDimension("age", 100).ok());
  EXPECT_FALSE(TwoDimSchema() == other);
  EXPECT_EQ(TwoDimSchema().ToString(), "age[100], income[50]");
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AppendValidation) {
  Table t(TwoDimSchema());
  EXPECT_TRUE(t.AppendValues({5, 5}).ok());
  EXPECT_FALSE(t.AppendValues({5}).ok());            // arity
  EXPECT_FALSE(t.AppendValues({100, 5}).ok());       // out of domain
  Row bad;
  bad.values = {5, 5};
  bad.measure = 0;
  EXPECT_FALSE(t.Append(bad).ok());                  // non-positive measure
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, EvaluateCountAndSum) {
  Table t = SmallTable();
  RangeQuery count = RangeQueryBuilder(Aggregation::kCount)
                         .Where(0, 20, 30)
                         .Build();
  EXPECT_EQ(t.Evaluate(count), 3);
  RangeQuery both = RangeQueryBuilder(Aggregation::kCount)
                        .Where(0, 20, 30)
                        .Where(1, 15, 30)
                        .Build();
  EXPECT_EQ(t.Evaluate(both), 1);
}

TEST(TableTest, EvaluateEmptyRangeMatchesAll) {
  Table t = SmallTable();
  RangeQuery q(Aggregation::kCount, {});
  EXPECT_EQ(t.Evaluate(q), 4);
}

TEST(TableTest, TotalMeasureCountsIndividuals) {
  Table t = SmallTable();
  EXPECT_EQ(t.TotalMeasure(), 4);
}

TEST(TableTest, CountTensorMergesCells) {
  Table t = SmallTable();
  Result<Table> tensor = t.BuildCountTensor({0});
  ASSERT_TRUE(tensor.ok());
  // Ages 20, 25, 70 -> 3 cells; 25 has measure 2.
  EXPECT_EQ(tensor->num_rows(), 3u);
  EXPECT_EQ(tensor->TotalMeasure(), 4);
  RangeQuery q25 = RangeQueryBuilder(Aggregation::kSum).Where(0, 25, 25).Build();
  EXPECT_EQ(tensor->Evaluate(q25), 2);
  RangeQuery c25 =
      RangeQueryBuilder(Aggregation::kCount).Where(0, 25, 25).Build();
  EXPECT_EQ(tensor->Evaluate(c25), 1);
}

TEST(TableTest, CountTensorSumEqualsRawCount) {
  // SUM(Measure) on the tensor equals COUNT(*) on the raw table for any
  // range over tensor dimensions (Fig. 2 of the paper).
  Rng rng(5);
  Table raw(TwoDimSchema());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(raw.AppendValues({rng.UniformInt(0, 99), rng.UniformInt(0, 49)})
                    .ok());
  }
  Result<Table> tensor = raw.BuildCountTensor({0, 1});
  ASSERT_TRUE(tensor.ok());
  for (int trial = 0; trial < 20; ++trial) {
    Value lo = rng.UniformInt(0, 80);
    Value hi = rng.UniformInt(lo, 99);
    RangeQuery raw_count =
        RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build();
    RangeQuery tensor_sum =
        RangeQueryBuilder(Aggregation::kSum).Where(0, lo, hi).Build();
    EXPECT_EQ(raw.Evaluate(raw_count), tensor->Evaluate(tensor_sum));
  }
}

TEST(TableTest, PartitionHorizontallyPreservesRows) {
  Table t = SmallTable();
  Result<std::vector<Table>> parts = t.PartitionHorizontally(3);
  ASSERT_TRUE(parts.ok());
  size_t total = 0;
  for (const auto& p : *parts) {
    EXPECT_TRUE(p.schema() == t.schema());
    total += p.num_rows();
  }
  EXPECT_EQ(total, t.num_rows());
  EXPECT_FALSE(t.PartitionHorizontally(0).ok());
}

// ------------------------------------------------------------ RangeQuery --

TEST(RangeQueryTest, ValidateCatchesBadQueries) {
  Schema s = TwoDimSchema();
  EXPECT_TRUE(
      RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 99).Build()
          .Validate(s).ok());
  EXPECT_FALSE(
      RangeQueryBuilder(Aggregation::kCount).Where(5, 0, 1).Build()
          .Validate(s).ok());  // bad dim
  EXPECT_FALSE(
      RangeQueryBuilder(Aggregation::kCount).Where(0, 5, 4).Build()
          .Validate(s).ok());  // empty interval
  EXPECT_FALSE(
      RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 100).Build()
          .Validate(s).ok());  // outside domain
  EXPECT_FALSE(RangeQueryBuilder(Aggregation::kCount)
                   .Where(0, 0, 10)
                   .Where(0, 5, 9)
                   .Build()
                   .Validate(s)
                   .ok());  // duplicate dim
}

TEST(RangeQueryTest, SerializeRoundTrip) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                     .Where(0, 5, 25)
                     .Where(1, 0, 49)
                     .Build();
  ByteWriter w;
  q.Serialize(&w);
  ByteReader r(w.bytes());
  Result<RangeQuery> back = RangeQuery::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->aggregation(), Aggregation::kSum);
  ASSERT_EQ(back->ranges().size(), 2u);
  EXPECT_EQ(back->ranges()[0].dim_index, 0u);
  EXPECT_EQ(back->ranges()[0].lo, 5);
  EXPECT_EQ(back->ranges()[1].hi, 49);
}

TEST(RangeQueryTest, ToStringIsReadable) {
  Schema s = TwoDimSchema();
  RangeQuery q =
      RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 40).Build();
  EXPECT_EQ(q.ToString(s), "SELECT COUNT(*) WHERE 20<=age<=40");
}

// --------------------------------------------------------------- Cluster --

/// Packs `rows` into a cluster with `dims` dimensions.
Cluster PackRows(uint32_t id, size_t dims, const std::vector<Row>& rows) {
  std::vector<const Row*> ptrs;
  for (const Row& r : rows) ptrs.push_back(&r);
  return Cluster::FromRows(id, dims, ptrs);
}

TEST(ClusterTest, ScanCountsAndSums) {
  Cluster c = PackRows(0, 2, {Row{{10, 5}, 2}, Row{{20, 6}, 3},
                              Row{{30, 7}, 4}});
  EXPECT_EQ(c.num_rows(), 3u);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 20).Build();
  ScanResult res = c.Scan(q);
  EXPECT_EQ(res.count, 2);
  EXPECT_EQ(res.sum, 5);
  EXPECT_EQ(res.For(Aggregation::kCount), 2);
  EXPECT_EQ(res.For(Aggregation::kSum), 5);
}

TEST(ClusterTest, MinMaxTracking) {
  Cluster empty = PackRows(1, 1, {});
  EXPECT_GT(empty.MinValue(0), empty.MaxValue(0));  // empty: min 0 > max -1
  Cluster one = PackRows(1, 1, {Row{{42}, 1}});
  EXPECT_EQ(one.MinValue(0), 42);
  EXPECT_EQ(one.MaxValue(0), 42);
  Cluster two = PackRows(1, 1, {Row{{42}, 1}, Row{{7}, 1}});
  EXPECT_EQ(two.MinValue(0), 7);
  EXPECT_EQ(two.MaxValue(0), 42);
}

TEST(ClusterTest, PacksEachColumnAtItsNarrowestWidth) {
  // Offsets from the column min decide the width; a column spanning the
  // whole int64 range stays plain int64 (reference 0).
  const Value big = int64_t{1} << 40;
  Cluster c = PackRows(
      3, 4,
      {Row{{5, -1000, 0, INT64_MIN}, 7}, Row{{5, -744, 70000, INT64_MAX}, 7},
       Row{{5, -900, 1, 0}, 7}});
  EXPECT_EQ(c.column(0).width, 0);  // constant
  EXPECT_EQ(c.column(0).reference, 5);
  EXPECT_EQ(c.column(1).width, 2);  // span 256
  EXPECT_EQ(c.column(1).reference, -1000);
  EXPECT_EQ(c.column(2).width, 4);  // span 70000
  EXPECT_EQ(c.column(3).width, 8);
  EXPECT_EQ(c.column(3).reference, 0);
  EXPECT_EQ(c.measures().width, 0);
  const std::vector<std::vector<Value>> want = {
      {5, -1000, 0, INT64_MIN}, {5, -744, 70000, INT64_MAX}, {5, -900, 1, 0}};
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t d = 0; d < 4; ++d) EXPECT_EQ(c.at(i, d), want[i][d]);
    EXPECT_EQ(c.measure(i), 7);
  }
  Cluster wide = PackRows(4, 1, {Row{{0}, 1}, Row{{big}, 1}});
  EXPECT_EQ(wide.column(0).width, 8);
  EXPECT_EQ(wide.measures().width, 0);
}

TEST(ClusterTest, FractionGreaterEqualUsesDenominator) {
  Cluster c = PackRows(2, 1, {Row{{1}, 1}, Row{{2}, 1}, Row{{3}, 1},
                              Row{{4}, 1}});
  // Denominator is the capacity S (8), not the row count (4).
  EXPECT_DOUBLE_EQ(c.FractionGreaterEqual(0, 3, 8), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(c.FractionGreaterEqual(0, 0, 8), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(c.FractionGreaterEqual(0, 5, 8), 0.0);
}

// ----------------------------------------------------------- ClusterStore --

Table WideTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Table t(TwoDimSchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        t.AppendValues({rng.UniformInt(0, 99), rng.UniformInt(0, 49)}).ok());
  }
  return t;
}

TEST(ClusterStoreTest, SplitsIntoBalancedCapacityChunks) {
  Table t = WideTable(1000, 3);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 128;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_clusters(), 8u);  // ceil(1000/128)
  EXPECT_EQ(store->TotalRows(), 1000u);
  // Balanced: every cluster within one row of the others, none above S,
  // and in particular no runt final cluster.
  for (size_t i = 0; i < store->num_clusters(); ++i) {
    EXPECT_LE(store->cluster(i).num_rows(), 128u);
    EXPECT_GE(store->cluster(i).num_rows(), 125u);  // 1000/8 = 125
  }
}

TEST(ClusterStoreTest, RejectsZeroCapacity) {
  Table t = WideTable(10, 3);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 0;
  EXPECT_FALSE(ClusterStore::Build(t, opts).ok());
}

TEST(ClusterStoreTest, ExactEvaluationMatchesTableScan) {
  Table t = WideTable(2000, 7);
  for (ClusterLayout layout :
       {ClusterLayout::kSequential, ClusterLayout::kSortedByFirstDim,
        ClusterLayout::kShuffled}) {
    ClusterStoreOptions opts;
    opts.cluster_capacity = 100;
    opts.layout = layout;
    Result<ClusterStore> store = ClusterStore::Build(t, opts);
    ASSERT_TRUE(store.ok());
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
      Value lo = rng.UniformInt(0, 60);
      Value hi = rng.UniformInt(lo, 99);
      for (Aggregation agg : {Aggregation::kCount, Aggregation::kSum}) {
        RangeQuery q = RangeQueryBuilder(agg).Where(0, lo, hi).Build();
        EXPECT_EQ(store->EvaluateExact(q), t.Evaluate(q));
      }
    }
  }
}

TEST(ClusterStoreTest, SortedLayoutConcentratesValues) {
  Table t = WideTable(1000, 13);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  opts.layout = ClusterLayout::kSortedByFirstDim;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  // With sorting, consecutive clusters hold increasing value ranges.
  for (size_t i = 0; i + 1 < store->num_clusters(); ++i) {
    EXPECT_LE(store->cluster(i).MaxValue(0), store->cluster(i + 1).MinValue(0));
  }
}

TEST(ClusterStoreTest, ScanClustersSubset) {
  Table t = WideTable(500, 17);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 99).Build();
  Result<ScanResult> all = store->ScanClusters(q, {0, 1, 2, 3, 4});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->count, 500);
  Result<ScanResult> one = store->ScanClusters(q, {0});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->count, 100);
}

// A bad id list is a protocol error: out-of-range ids were UB-adjacent and
// duplicates silently double-counted before the guard existed.
TEST(ClusterStoreTest, ScanClustersRejectsOutOfRangeAndDuplicateIds) {
  Table t = WideTable(500, 17);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 99).Build();

  Result<ScanResult> out_of_range = store->ScanClusters(q, {99});
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  Result<ScanResult> duplicate = store->ScanClusters(q, {1, 2, 1});
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);

  // The guard applies on the sharded path too.
  ThreadPool pool(2);
  ShardedScanExecutor exec(3, &pool);
  EXPECT_FALSE(store->ScanClusters(q, {0, 0}, &exec).ok());
  Result<ScanResult> sharded = store->ScanClusters(q, {0, 1, 2, 3, 4}, &exec);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->count, 500);
}

TEST(ClusterStoreTest, TotalMeasureMatchesTable) {
  Table t = SmallTable();
  Result<Table> tensor = t.BuildCountTensor({0});
  ASSERT_TRUE(tensor.ok());
  ClusterStoreOptions opts;
  opts.cluster_capacity = 2;
  Result<ClusterStore> store = ClusterStore::Build(*tensor, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->TotalMeasure(), 4);
}

// S1 pin: specialized scan profiles must not change the aggregate they do
// produce, and must zero the ones they skip.
TEST(ClusterStoreTest, ScanProfilesPinAnswers) {
  Table t = WideTable(800, 23);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 70).Build();
  std::vector<uint32_t> ids = {0, 2, 5};
  Result<ScanResult> all = store->ScanClusters(q, ids);
  ASSERT_TRUE(all.ok());
  Result<ScanResult> count =
      store->ScanClusters(q, ids, nullptr, nullptr, ScanProfile::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, all->count);
  EXPECT_EQ(count->sum, 0);
  EXPECT_EQ(count->sum_squares, 0);
  Result<ScanResult> sum =
      store->ScanClusters(q, ids, nullptr, nullptr, ScanProfile::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->sum, all->sum);
  EXPECT_EQ(sum->sum_squares, 0);
}

// S2: totals are cached at build time, not recomputed per call; appending
// through Build keeps them in sync with the table.
TEST(ClusterStoreTest, CachedTotalsMatchWalk) {
  Table t = WideTable(1234, 29);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  size_t rows = 0;
  int64_t measure = 0;
  store->ForEachCluster([&](const Cluster& c) {
    rows += c.num_rows();
    for (size_t i = 0; i < c.num_rows(); ++i) measure += c.measure(i);
  });
  EXPECT_EQ(store->TotalRows(), rows);
  EXPECT_EQ(store->TotalMeasure(), measure);
  EXPECT_EQ(store->TotalRows(), 1234u);
}

// ------------------------------------------------------- MappedStoreFile --

class MappedStoreTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    std::string p = ::testing::TempDir() + "fedaqp_mapped_" + name + ".bin";
    std::remove(p.c_str());
    paths_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::vector<std::string> paths_;
};

TEST_F(MappedStoreTest, RoundTripPreservesEveryAnswer) {
  Table t = WideTable(2500, 31);
  for (ClusterLayout layout :
       {ClusterLayout::kSequential, ClusterLayout::kSortedByFirstDim,
        ClusterLayout::kShuffled}) {
    ClusterStoreOptions opts;
    opts.cluster_capacity = 128;
    opts.layout = layout;
    Result<ClusterStore> built = ClusterStore::Build(t, opts);
    ASSERT_TRUE(built.ok());
    std::string path =
        Path("roundtrip_" + std::to_string(static_cast<int>(layout)));
    ASSERT_TRUE(built->SaveMapped(path).ok());

    Result<ClusterStore> mapped = ClusterStore::OpenMapped(path);
    ASSERT_TRUE(mapped.ok());
    EXPECT_TRUE(mapped->mapped());
    EXPECT_GT(mapped->MappedBytes(), 0u);
    EXPECT_EQ(mapped->num_clusters(), built->num_clusters());
    EXPECT_EQ(mapped->TotalRows(), built->TotalRows());
    EXPECT_EQ(mapped->TotalMeasure(), built->TotalMeasure());
    EXPECT_TRUE(mapped->schema() == built->schema());
    for (size_t c = 0; c < built->num_clusters(); ++c) {
      EXPECT_EQ(mapped->ClusterRows(c), built->ClusterRows(c));
    }

    Rng rng(41);
    for (int trial = 0; trial < 10; ++trial) {
      const Value lo = rng.UniformInt(0, 80);
      const Value hi = rng.UniformInt(lo, 99);
      for (Aggregation agg :
           {Aggregation::kCount, Aggregation::kSum,
            Aggregation::kSumSquares}) {
        RangeQuery q = RangeQueryBuilder(agg).Where(0, lo, hi).Build();
        EXPECT_EQ(mapped->EvaluateExact(q), built->EvaluateExact(q));
        const size_t c = static_cast<size_t>(
            rng.UniformU64(built->num_clusters()));
        ScanResult resident = built->ScanCluster(c, q);
        ScanResult decoded = mapped->ScanCluster(c, q);
        EXPECT_EQ(resident.count, decoded.count);
        EXPECT_EQ(resident.sum, decoded.sum);
        EXPECT_EQ(resident.sum_squares, decoded.sum_squares);
      }
    }

    // Materialized clusters match the resident originals row for row.
    size_t idx = 0;
    mapped->ForEachCluster([&](const Cluster& mc) {
      const Cluster& rc = built->cluster(idx++);
      ASSERT_EQ(mc.num_rows(), rc.num_rows());
      for (size_t i = 0; i < rc.num_rows(); ++i) {
        for (size_t d = 0; d < rc.num_dims(); ++d) {
          EXPECT_EQ(mc.at(i, d), rc.at(i, d));
        }
        EXPECT_EQ(mc.measure(i), rc.measure(i));
      }
      for (size_t d = 0; d < rc.num_dims(); ++d) {
        EXPECT_EQ(mc.MinValue(d), rc.MinValue(d));
        EXPECT_EQ(mc.MaxValue(d), rc.MaxValue(d));
      }
    });
    EXPECT_EQ(idx, built->num_clusters());
  }
}

TEST_F(MappedStoreTest, CompressionShrinksSmallDomains) {
  // Two dims with domains <= 200 and measures <= 1000 pack into 1-2 bytes
  // per value vs 8 raw — the file must be well under half the raw size.
  Table t = WideTable(4000, 37);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 256;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("compression");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  const size_t file_size = static_cast<size_t>(in.tellg());
  const size_t raw_size = 4000 * 3 * sizeof(int64_t);
  EXPECT_LT(file_size, raw_size / 2);
}

/// Reads a whole file.
std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Poke(std::vector<char>* bytes, size_t pos, T v) {
  std::memcpy(bytes->data() + pos, &v, sizeof(T));
}

/// Byte offset of the first cluster's directory entry in a store file
/// written for `schema` (see the layout in storage/store_file.h).
size_t DirectoryStart(const Schema& schema) {
  ByteWriter w;
  EncodeSchema(schema, &w);
  return 4 + 4 + 8 + 8 + 8 + 8 + w.size();
}

/// Scans cluster `c` of `file` the slow way: decode every column the
/// query needs to int64, then run the plain-int64 kernel.
ScanResult DecodeThenScan(const MappedStoreFile& file, size_t c,
                          const RangeQuery& query, ScanProfile profile) {
  std::vector<std::vector<int64_t>> decoded(file.num_dims() + 1);
  std::vector<PackedColumn> cols(file.num_dims());
  for (size_t d = 0; d < file.num_dims(); ++d) {
    file.DecodeColumn(c, d, &decoded[d]);
    cols[d] = Int64Column(decoded[d].data());
  }
  file.DecodeColumn(c, file.num_dims(), &decoded.back());
  return ScanColumnsForQuery(query, cols.data(),
                             Int64Column(decoded.back().data()),
                             file.cluster_rows(c), profile);
}

TEST_F(MappedStoreTest, LyingDirectoryBoundsAnswerAsDecodeThenScan) {
  // Frame-of-reference columns are scanned in place, translating each
  // predicate through the column's reference and width only. A directory
  // whose min/max lie, data bytes outside those bounds, and references
  // whose offsets wrap past INT64_MAX must all answer exactly as decoding
  // every value first does.
  Table t = WideTable(700, 61);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  opts.layout = ClusterLayout::kShuffled;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("lying_src");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  std::vector<char> bytes = ReadFileBytes(path);

  const size_t dims = t.schema().num_dims();
  const size_t col_entry = 1 + 1 + 8 + 8 + 8 + 8 + 8;
  const size_t cluster_entry = 4 + 8 + (dims + 1) * col_entry;
  const size_t dir = DirectoryStart(t.schema());
  const size_t num_clusters = built->num_clusters();
  Rng rng(67);
  for (size_t c = 0; c < num_clusters; ++c) {
    for (size_t col = 0; col <= dims; ++col) {
      const size_t entry = dir + c * cluster_entry + 12 + col * col_entry;
      ASSERT_EQ(bytes[entry], 0) << "expected a kFor column";
      // Entry layout: u8 encoding, u8 width, then i64 reference at +2,
      // min at +10, max at +18. Bounds that claim the column is one
      // far-away value, and on every other cluster a reference whose
      // offsets wrap past INT64_MAX.
      const int64_t ref = c % 2 == 0 ? rng.UniformInt(-20, 20)
                                     : INT64_MAX - rng.UniformInt(0, 100);
      Poke<int64_t>(&bytes, entry + 2, ref);
      Poke<int64_t>(&bytes, entry + 10, int64_t{1} << 50);
      Poke<int64_t>(&bytes, entry + 18, (int64_t{1} << 50) + 1);
    }
  }
  // Scribble over part of the data section: offsets the saved bounds
  // never allowed.
  for (int k = 0; k < 200; ++k) {
    const size_t pos = bytes.size() - 1 - rng.UniformU64(bytes.size() / 3);
    bytes[pos] = static_cast<char>(rng.UniformU64(256));
  }
  std::string lying = Path("lying");
  WriteFileBytes(lying, bytes);

  Result<ClusterStore> mapped = ClusterStore::OpenMapped(lying);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  Result<std::shared_ptr<const MappedStoreFile>> file =
      MappedStoreFile::Open(lying);
  ASSERT_TRUE(file.ok());
  const std::pair<Value, Value> ranges[] = {
      {0, 99}, {10, 40}, {INT64_MIN, INT64_MAX}, {INT64_MIN, -1},
      {INT64_MAX - 50, INT64_MAX}, {int64_t{1} << 50, int64_t{1} << 51}};
  for (const auto& range : ranges) {
    for (ScanProfile profile :
         {ScanProfile::kCount, ScanProfile::kSum, ScanProfile::kSumSquares,
          ScanProfile::kAll}) {
      RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                         .Where(0, range.first, range.second)
                         .Where(1, INT64_MIN + 1, INT64_MAX)
                         .Build();
      for (size_t c = 0; c < num_clusters; ++c) {
        const ScanResult want = DecodeThenScan(**file, c, q, profile);
        for (ScanBackend backend : {ScanBackend::kScalar, ScanBackend::kAvx2}) {
          SetScanBackend(backend);
          const ScanResult got = mapped->ScanCluster(c, q, profile);
          EXPECT_EQ(got.count, want.count) << "cluster " << c;
          EXPECT_EQ(got.sum, want.sum) << "cluster " << c;
          EXPECT_EQ(got.sum_squares, want.sum_squares) << "cluster " << c;
        }
      }
    }
  }
  SetScanBackend(ResolveScanBackend());
}

TEST_F(MappedStoreTest, ColumnEndingOnAPageBoundaryIsNotOverRead) {
  // The file's last bytes are the last cluster's measure column. Pad the
  // schema (a dimension name) until the file is an exact number of pages,
  // so the page after the mapping is unmapped and any load past a
  // column's end faults. Dimensions span 1-, 2-, 4- and 8-byte offsets;
  // the measure column takes each width in turn; cluster sizes cover a
  // block tail (67 rows) and whole blocks only (64 rows).
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const Value domains[] = {250, 60000, Value{5} << 30, Value{1} << 40};
  const Value measure_spans[] = {200, 60000, Value{4} << 30, Value{1} << 40};
  for (Value measure_span : measure_spans) {
    for (size_t rows : {size_t{67}, size_t{64}}) {
      auto make_table = [&](const std::string& pad) {
        Schema schema;
        for (size_t d = 0; d < 4; ++d) {
          EXPECT_TRUE(schema.AddDimension("d" + std::to_string(d) +
                                              (d == 0 ? pad : ""),
                                          domains[d])
                          .ok());
        }
        Table table(schema);
        Rng rng(static_cast<uint64_t>(measure_span) + rows);
        for (size_t i = 0; i < 2 * rows; ++i) {
          Row row;
          for (Value domain : domains) {
            row.values.push_back(rng.UniformInt(0, domain - 1));
          }
          row.measure = 1 + rng.UniformInt(0, measure_span);
          EXPECT_TRUE(table.Append(row).ok());
        }
        // Pin the extremes so every column needs its full width.
        EXPECT_TRUE(table.Append(Row{{0, 0, 0, 0}, 1}).ok());
        EXPECT_TRUE(table.Append(Row{{domains[0] - 1, domains[1] - 1,
                                      domains[2] - 1, domains[3] - 1},
                                     1 + measure_span})
                        .ok());
        return table;
      };
      ClusterStoreOptions opts;
      opts.cluster_capacity = rows;
      opts.layout = ClusterLayout::kShuffled;
      std::string path = Path("page_" + std::to_string(measure_span) + "_" +
                              std::to_string(rows));
      Result<ClusterStore> probe = ClusterStore::Build(make_table(""), opts);
      ASSERT_TRUE(probe.ok());
      ASSERT_TRUE(probe->SaveMapped(path).ok());
      const size_t unpadded = ReadFileBytes(path).size();
      const std::string pad((page - unpadded % page) % page, 'x');
      Table table = make_table(pad);
      Result<ClusterStore> built = ClusterStore::Build(table, opts);
      ASSERT_TRUE(built.ok());
      ASSERT_TRUE(built->SaveMapped(path).ok());
      ASSERT_EQ(ReadFileBytes(path).size() % page, 0u);

      Result<ClusterStore> mapped = ClusterStore::OpenMapped(path);
      ASSERT_TRUE(mapped.ok());
      for (size_t d = 0; d < 4; ++d) {
        for (Aggregation agg :
             {Aggregation::kCount, Aggregation::kSum,
              Aggregation::kSumSquares}) {
          RangeQuery q = RangeQueryBuilder(agg)
                             .Where(d, domains[d] / 4, domains[d] / 2)
                             .Build();
          for (ScanBackend backend :
               {ScanBackend::kScalar, ScanBackend::kAvx2}) {
            SetScanBackend(backend);
            EXPECT_EQ(mapped->EvaluateExact(q), built->EvaluateExact(q))
                << "dim " << d << " measure span " << measure_span;
          }
        }
      }
    }
  }
  SetScanBackend(ResolveScanBackend());
}

TEST_F(MappedStoreTest, RejectsTruncatedFiles) {
  Table t = WideTable(500, 47);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("truncate_src");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);
  // Cut at several depths: inside the header, the directory, the data.
  for (size_t keep : {size_t{6}, size_t{40}, bytes.size() / 2,
                      bytes.size() - 1}) {
    std::string cut = Path("truncate_" + std::to_string(keep));
    std::ofstream out(cut, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(ClusterStore::OpenMapped(cut).ok()) << "keep=" << keep;
  }
}

TEST_F(MappedStoreTest, RejectsCorruptedFiles) {
  Table t = WideTable(500, 53);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("corrupt_src");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());

  auto write_variant = [&](const std::string& name,
                           const std::vector<char>& b) {
    std::string p = Path(name);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
    out.close();
    return p;
  };

  // Bad magic.
  std::vector<char> bad_magic = bytes;
  bad_magic[0] ^= 0x5A;
  EXPECT_FALSE(ClusterStore::OpenMapped(write_variant("magic", bad_magic)).ok());

  // Unsupported version.
  std::vector<char> bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_FALSE(
      ClusterStore::OpenMapped(write_variant("version", bad_version)).ok());

  // Header total_rows inconsistent with the per-cluster directory.
  std::vector<char> bad_rows = bytes;
  bad_rows[24] ^= 0x01;  // total_rows low byte (offset 8+8+8)
  EXPECT_FALSE(ClusterStore::OpenMapped(write_variant("rows", bad_rows)).ok());

  // A column encoding other than frame-of-reference (1 was the retired
  // delta coding) in the first cluster's first directory entry.
  const size_t first_encoding = DirectoryStart(t.schema()) + 4 + 8;
  ASSERT_EQ(bytes[first_encoding], 0) << "expected a kFor column";
  std::vector<char> bad_encoding = bytes;
  bad_encoding[first_encoding] = 1;
  EXPECT_EQ(ClusterStore::OpenMapped(write_variant("encoding", bad_encoding))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Flipping a directory byte must never crash: either the open fails
  // validation or the decoded answers change in a bounded way — we only
  // require no UB here, checked by running a scan if it opens.
  Rng rng(59);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<char> mutated = bytes;
    const size_t pos = 8 + static_cast<size_t>(
        rng.UniformU64(std::min<size_t>(mutated.size() - 8, 400)));
    mutated[pos] ^= static_cast<char>(1 + rng.UniformU64(255));
    Result<ClusterStore> opened =
        ClusterStore::OpenMapped(write_variant("fuzz" + std::to_string(trial),
                                               mutated));
    if (opened.ok()) {
      RangeQuery q =
          RangeQueryBuilder(Aggregation::kSum).Where(0, 0, 99).Build();
      (void)opened->EvaluateExact(q);
    }
  }

  // Missing file.
  EXPECT_EQ(ClusterStore::OpenMapped(Path("missing")).status().code(),
            StatusCode::kNotFound);
}

// A hostile schema count must fail fast with a Status: the shared schema
// codec refuses a count the remaining bytes cannot hold before reading a
// single dimension.
TEST_F(MappedStoreTest, HostileSchemaCountOpensToStatus) {
  Table t = WideTable(300, 61);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("hostile_schema_src");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  // Header: magic u32, version u32, capacity, clusters, rows, measure
  // (u64 each); the schema's u32 dimension count follows at offset 40.
  ASSERT_GT(bytes.size(), 44u);
  for (size_t i = 40; i < 44; ++i) bytes[i] = static_cast<char>(0xFF);
  std::string hostile = Path("hostile_schema");
  {
    std::ofstream out(hostile, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<ClusterStore> opened = ClusterStore::OpenMapped(hostile);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kOutOfRange);
}

TEST_F(MappedStoreTest, BytesMappedAccountingRisesAndFalls) {
  Table t = WideTable(800, 61);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("accounting");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  const uint64_t before = MappedStoreFile::TotalMappedBytes();
  {
    Result<ClusterStore> mapped = ClusterStore::OpenMapped(path);
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(MappedStoreFile::TotalMappedBytes(),
              before + mapped->MappedBytes());
  }
  EXPECT_EQ(MappedStoreFile::TotalMappedBytes(), before);
}

}  // namespace
}  // namespace fedaqp
