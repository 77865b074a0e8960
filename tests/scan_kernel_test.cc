// Bit-identity property suite for the packed-column scan kernels: the
// AVX2 and scalar backends must agree bit-for-bit with each other and with
// a row-at-a-time int64 reference on every input — counts, sums and sums
// of squares, including wrapping overflow — across packed widths, offset
// spans, references, predicate shapes, block tails, layouts, shard counts
// and scan profiles. Also covers the FEDAQP_FORCE_SCALAR escape hatch and
// the runtime dispatch plumbing.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "storage/cluster_store.h"
#include "storage/scan_kernel.h"
#include "storage/table.h"

namespace fedaqp {
namespace {

/// Restores the dispatch cache (and FEDAQP_FORCE_SCALAR) after each test
/// so suites can run in any order.
class ScanKernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("FEDAQP_FORCE_SCALAR");
    SetScanBackend(ResolveScanBackend());
  }
};

/// A test-owned packed column: `values` written as little-endian offsets
/// from `reference` in `width` bytes (offsets must fit the width).
struct TestColumn {
  std::vector<uint8_t> bytes;
  uint8_t width = 8;
  int64_t reference = 0;

  PackedColumn view() const {
    PackedColumn col;
    col.data = bytes.data();
    col.width = width;
    col.reference = reference;
    return col;
  }
};

TestColumn PackAt(const std::vector<Value>& values, uint8_t width,
                  int64_t reference) {
  TestColumn col;
  col.width = width;
  col.reference = reference;
  col.bytes.resize(values.size() * width);
  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t o =
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(reference);
    for (uint8_t b = 0; b < width; ++b) {
      col.bytes[i * width + b] = static_cast<uint8_t>(o >> (8 * b));
    }
  }
  return col;
}

/// Plain int64 columns through the packed API.
ScanResult ScanWith(ScanBackend backend,
                    const std::vector<std::vector<Value>>& columns,
                    const std::vector<int64_t>& measures,
                    const std::vector<ColumnPredicate>& pred_template,
                    ScanProfile profile) {
  std::vector<ColumnPredicate> preds = pred_template;
  for (size_t p = 0; p < preds.size(); ++p) {
    preds[p].column = Int64Column(columns[p].data());
  }
  return ScanColumnsWithBackend(backend, preds.data(), preds.size(),
                                Int64Column(measures.data()),
                                measures.size(), profile);
}

/// The row-at-a-time reference: decode every value to int64 first, test
/// each predicate on the value, accumulate in wrapping uint64.
ScanResult ReferenceScan(const std::vector<ColumnPredicate>& preds,
                         PackedColumn measures, size_t num_rows,
                         ScanProfile profile) {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t sum_squares = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    bool match = true;
    for (const ColumnPredicate& p : preds) {
      const Value v = p.column.At(i);
      if (v < p.lo || v > p.hi) match = false;
    }
    if (!match) continue;
    ++count;
    if (ProfileNeedsMeasures(profile)) {
      const uint64_t m = static_cast<uint64_t>(measures.At(i));
      sum += m;
      sum_squares += m * m;
    }
  }
  ScanResult out;
  out.count = static_cast<int64_t>(count);
  if (profile == ScanProfile::kSum || profile == ScanProfile::kAll) {
    out.sum = static_cast<int64_t>(sum);
  }
  if (profile == ScanProfile::kSumSquares || profile == ScanProfile::kAll) {
    out.sum_squares = static_cast<int64_t>(sum_squares);
  }
  return out;
}

constexpr ScanProfile kProfiles[] = {ScanProfile::kCount, ScanProfile::kSum,
                                     ScanProfile::kSumSquares,
                                     ScanProfile::kAll};

/// Checks scalar, AVX2 and the dispatched ScanColumns against the
/// reference for every profile. Returns the number of mismatches.
int CheckAllBackends(const std::vector<ColumnPredicate>& preds,
                     PackedColumn measures, size_t num_rows,
                     const std::string& what) {
  int failures = 0;
  for (ScanProfile profile : kProfiles) {
    const ScanResult want = ReferenceScan(preds, measures, num_rows, profile);
    const ScanResult got[] = {
        ScanColumnsWithBackend(ScanBackend::kScalar, preds.data(),
                               preds.size(), measures, num_rows, profile),
        ScanColumnsWithBackend(ScanBackend::kAvx2, preds.data(), preds.size(),
                               measures, num_rows, profile),
        ScanColumns(preds.data(), preds.size(), measures, num_rows, profile)};
    for (const ScanResult& r : got) {
      if (r.count != want.count || r.sum != want.sum ||
          r.sum_squares != want.sum_squares) {
        ++failures;
        ADD_FAILURE() << what << " profile=" << static_cast<int>(profile)
                      << " want (" << want.count << ", " << want.sum << ", "
                      << want.sum_squares << ") got (" << r.count << ", "
                      << r.sum << ", " << r.sum_squares << ")";
      }
    }
  }
  return failures;
}

/// Values in [reference, reference + span] that always include both ends
/// (when n allows) so the column really needs its width.
std::vector<Value> SpanValues(size_t n, int64_t reference, uint64_t span,
                              Rng* rng) {
  std::vector<Value> values(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t draw = rng->NextU64();
    const uint64_t o = span == ~uint64_t{0} ? draw : draw % (span + 1);
    values[i] = static_cast<Value>(static_cast<uint64_t>(reference) + o);
  }
  if (n > 0) values[rng->UniformU64(n)] = reference;
  if (n > 1) {
    values[rng->UniformU64(n)] =
        static_cast<Value>(static_cast<uint64_t>(reference) + span);
  }
  return values;
}

/// Disjoint, covering, partial, single-value and inverted intervals over
/// a column whose values lie in [lo_value, hi_value].
std::vector<std::pair<Value, Value>> PredicateShapes(
    const std::vector<Value>& values, Value lo_value, Value hi_value,
    Rng* rng) {
  std::vector<std::pair<Value, Value>> shapes = {
      {INT64_MIN, INT64_MAX},                      // covers everything
      {lo_value, hi_value},                        // covers the column
      {INT64_MIN, lo_value == INT64_MIN ? INT64_MIN : lo_value - 1},  // below
      {hi_value == INT64_MAX ? INT64_MAX : hi_value + 1, INT64_MAX},  // above
      {hi_value, lo_value},                        // inverted (empty)
  };
  const uint64_t width = static_cast<uint64_t>(hi_value) -
                         static_cast<uint64_t>(lo_value);
  for (int k = 0; k < 3; ++k) {  // partial
    const uint64_t a = width == 0 ? 0 : rng->NextU64() % (width + 1);
    const uint64_t b = width == 0 ? 0 : rng->NextU64() % (width + 1);
    const uint64_t base = static_cast<uint64_t>(lo_value);
    shapes.push_back({static_cast<Value>(base + std::min(a, b)),
                      static_cast<Value>(base + std::max(a, b))});
  }
  if (!values.empty()) {  // single value, present
    const Value v = values[rng->UniformU64(values.size())];
    shapes.push_back({v, v});
  }
  return shapes;
}

TEST_F(ScanKernelTest, PackedWidthsMatchRowAtATimeReference) {
  // Offset spans at every width boundary, at their natural width and one
  // width up, with positive, zero and negative references, row counts
  // 0..67 (empty, all-tail, one block, block + tail, two blocks + tail),
  // measures whose squares wrap, and every predicate shape.
  const uint64_t spans[] = {0,      255,        256,
                            65535,  65536,      0xFFFFFFFFull,
                            uint64_t{1} << 32};
  const int64_t refs[] = {0, -7, -(int64_t{1} << 40), 123456789};
  struct MeasureShape {
    uint64_t span;
    int64_t reference;
  };
  const MeasureShape measure_shapes[] = {
      {0, 5},                               // constant
      {200, 1},                             // 1 byte
      {60000, -30000},                      // 2 bytes, negative reference
      {4000000000ull, int64_t{1} << 40},    // 4 bytes, squares wrap
      {~uint64_t{0}, 0},                    // full int64 range
  };
  Rng rng(2024);
  int failures = 0;
  for (uint64_t span : spans) {
    for (int64_t ref : refs) {
      const uint8_t natural = PackedWidthFor(span);
      for (uint8_t width : {natural, static_cast<uint8_t>(
                                         natural == 0   ? 1
                                         : natural == 8 ? 8
                                                        : natural * 2)}) {
        for (size_t n = 0; n <= 67; ++n) {
          if (failures > 20) return;
          const std::vector<Value> a = SpanValues(n, ref, span, &rng);
          const TestColumn col_a = PackAt(a, width, ref);
          // A second, partially matching predicate on a 1-byte column.
          const std::vector<Value> b = SpanValues(n, -3, 200, &rng);
          const TestColumn col_b = PackAt(b, 1, -3);
          const MeasureShape& ms =
              measure_shapes[rng.UniformU64(std::size(measure_shapes))];
          const std::vector<Value> m =
              SpanValues(n, ms.reference, ms.span, &rng);
          const uint8_t mw = PackedWidthFor(ms.span);
          const TestColumn col_m = PackAt(m, mw, mw == 8 ? 0 : ms.reference);
          const Value hi_value =
              static_cast<Value>(static_cast<uint64_t>(ref) + span);
          for (const auto& shape : PredicateShapes(a, ref, hi_value, &rng)) {
            std::vector<ColumnPredicate> preds(1);
            preds[0].column = col_a.view();
            preds[0].lo = shape.first;
            preds[0].hi = shape.second;
            const std::string what =
                "span=" + std::to_string(span) + " ref=" +
                std::to_string(ref) + " width=" + std::to_string(width) +
                " n=" + std::to_string(n) + " pred=[" +
                std::to_string(shape.first) + "," +
                std::to_string(shape.second) + "]";
            failures += CheckAllBackends(preds, col_m.view(), n, what);
            ColumnPredicate second;
            second.column = col_b.view();
            second.lo = rng.UniformInt(-3, 100);
            second.hi = second.lo + rng.UniformInt(0, 100);
            preds.push_back(second);
            failures += CheckAllBackends(preds, col_m.view(), n,
                                         what + " + 1-byte predicate");
          }
        }
      }
    }
  }
}

TEST_F(ScanKernelTest, ArbitraryBytesMatchDecodeThenScan) {
  // Any bytes at any reference — including references where ref + offset
  // wraps past INT64_MAX — answer exactly as decoding each value first.
  Rng rng(77);
  const int64_t refs[] = {INT64_MAX - 3, INT64_MAX - 70000, INT64_MIN, -1,
                          0, 1000};
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformU64(100));
    const uint8_t widths[] = {0, 1, 2, 4, 8};
    TestColumn col;
    col.width = widths[rng.UniformU64(5)];
    col.reference = refs[rng.UniformU64(std::size(refs))];
    col.bytes.resize(n * col.width);
    for (uint8_t& byte : col.bytes) {
      byte = static_cast<uint8_t>(rng.UniformU64(256));
    }
    TestColumn measures;
    measures.width = widths[1 + rng.UniformU64(4)];
    measures.reference = refs[rng.UniformU64(std::size(refs))];
    measures.bytes.resize(n * measures.width);
    for (uint8_t& byte : measures.bytes) {
      byte = static_cast<uint8_t>(rng.UniformU64(256));
    }
    std::vector<ColumnPredicate> preds(1);
    preds[0].column = col.view();
    const Value pivot = n > 0 ? col.view().At(rng.UniformU64(n)) : 0;
    switch (rng.UniformU64(4)) {
      case 0:
        preds[0].lo = INT64_MIN + 100;
        preds[0].hi = INT64_MAX;
        break;
      case 1:
        preds[0].lo = pivot;
        preds[0].hi = INT64_MAX;
        break;
      case 2:
        preds[0].lo = INT64_MIN;
        preds[0].hi = pivot;
        break;
      default:
        preds[0].lo = pivot;
        preds[0].hi = pivot;
        break;
    }
    ASSERT_EQ(CheckAllBackends(preds, measures.view(), n,
                               "trial " + std::to_string(trial)),
              0);
  }
}

TEST_F(ScanKernelTest, ForcedScalarDispatchMatchesReference) {
  // The FEDAQP_FORCE_SCALAR escape hatch routes ScanColumns to the scalar
  // kernel, which must give the reference answers on packed columns.
  ::setenv("FEDAQP_FORCE_SCALAR", "1", 1);
  SetScanBackend(ResolveScanBackend());
  ASSERT_EQ(ActiveScanBackend(), ScanBackend::kScalar);
  Rng rng(5);
  for (uint8_t width : {uint8_t{1}, uint8_t{2}, uint8_t{4}, uint8_t{8}}) {
    for (size_t n : {size_t{0}, size_t{31}, size_t{32}, size_t{67}}) {
      const std::vector<Value> a = SpanValues(n, -50, 250, &rng);
      const TestColumn col = PackAt(a, width, width == 8 ? 0 : -50);
      const std::vector<Value> m = SpanValues(n, 1, 1000, &rng);
      const TestColumn meas = PackAt(m, 2, 1);
      std::vector<ColumnPredicate> preds(1);
      preds[0].column = col.view();
      preds[0].lo = -10;
      preds[0].hi = 120;
      for (ScanProfile profile : kProfiles) {
        const ScanResult want = ReferenceScan(preds, meas.view(), n, profile);
        const ScanResult got =
            ScanColumns(preds.data(), 1, meas.view(), n, profile);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.sum, want.sum);
        EXPECT_EQ(got.sum_squares, want.sum_squares);
      }
    }
  }
}

TEST_F(ScanKernelTest, BackendsBitIdenticalOnRandomInputs) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    // Odd sizes exercise the block tail; size 0..31 the all-tail case.
    const size_t n = static_cast<size_t>(rng.UniformU64(513));
    const size_t num_preds = 1 + static_cast<size_t>(rng.UniformU64(3));
    std::vector<std::vector<Value>> columns(num_preds);
    std::vector<ColumnPredicate> preds(num_preds);
    for (size_t p = 0; p < num_preds; ++p) {
      columns[p].resize(n);
      for (size_t i = 0; i < n; ++i) {
        columns[p][i] = rng.UniformInt(-50, 50);
      }
      const Value lo = rng.UniformInt(-60, 40);
      preds[p].lo = lo;
      preds[p].hi = lo + rng.UniformInt(0, 40);
    }
    std::vector<int64_t> measures(n);
    for (size_t i = 0; i < n; ++i) {
      measures[i] = rng.UniformInt(-1000000, 1000000);
    }
    for (ScanProfile profile : kProfiles) {
      ScanResult scalar =
          ScanWith(ScanBackend::kScalar, columns, measures, preds, profile);
      ScanResult simd =
          ScanWith(ScanBackend::kAvx2, columns, measures, preds, profile);
      EXPECT_EQ(scalar.count, simd.count);
      EXPECT_EQ(scalar.sum, simd.sum);
      EXPECT_EQ(scalar.sum_squares, simd.sum_squares);
    }
  }
}

TEST_F(ScanKernelTest, BackendsAgreeUnderWrappingOverflow) {
  // Measures near the int64 extremes force the uint64 accumulators (and
  // the AVX2 Mul64Lo low-half product) to wrap; the backends must wrap to
  // the same bits.
  Rng rng(7);
  const size_t n = 1001;
  std::vector<std::vector<Value>> columns(1);
  columns[0].assign(n, 0);
  std::vector<int64_t> measures(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bits = rng.NextU64();
    measures[i] = static_cast<int64_t>(bits);
  }
  std::vector<ColumnPredicate> preds(1);
  preds[0].lo = 0;
  preds[0].hi = 0;
  ScanResult scalar =
      ScanWith(ScanBackend::kScalar, columns, measures, preds,
               ScanProfile::kAll);
  ScanResult simd = ScanWith(ScanBackend::kAvx2, columns, measures, preds,
                             ScanProfile::kAll);
  EXPECT_EQ(scalar.count, static_cast<int64_t>(n));
  EXPECT_EQ(scalar.sum, simd.sum);
  EXPECT_EQ(scalar.sum_squares, simd.sum_squares);
}

TEST_F(ScanKernelTest, ProfilesZeroTheAggregatesOutsideThem) {
  std::vector<std::vector<Value>> columns = {{1, 2, 3, 4, 5}};
  std::vector<int64_t> measures = {10, 20, 30, 40, 50};
  std::vector<ColumnPredicate> preds(1);
  preds[0].lo = 2;
  preds[0].hi = 4;
  for (ScanBackend backend : {ScanBackend::kScalar, ScanBackend::kAvx2}) {
    ScanResult count =
        ScanWith(backend, columns, measures, preds, ScanProfile::kCount);
    EXPECT_EQ(count.count, 3);
    EXPECT_EQ(count.sum, 0);
    EXPECT_EQ(count.sum_squares, 0);
    ScanResult sum =
        ScanWith(backend, columns, measures, preds, ScanProfile::kSum);
    EXPECT_EQ(sum.count, 3);
    EXPECT_EQ(sum.sum, 90);
    EXPECT_EQ(sum.sum_squares, 0);
    ScanResult ss =
        ScanWith(backend, columns, measures, preds, ScanProfile::kSumSquares);
    EXPECT_EQ(ss.sum_squares, 400 + 900 + 1600);
    EXPECT_EQ(ss.sum, 0);
  }
}

TEST_F(ScanKernelTest, CountProfileNeverReadsMeasures) {
  // The contract that lets COUNT scans skip the measure column entirely
  // (null pointer would crash any backend that touched it).
  std::vector<std::vector<Value>> columns = {{1, 2, 3, 4, 5, 6, 7}};
  std::vector<ColumnPredicate> preds(1);
  preds[0].column = Int64Column(columns[0].data());
  preds[0].lo = 3;
  preds[0].hi = 6;
  for (ScanBackend backend : {ScanBackend::kScalar, ScanBackend::kAvx2}) {
    ScanResult r = ScanColumnsWithBackend(backend, preds.data(), 1,
                                          /*measures=*/PackedColumn{}, 7,
                                          ScanProfile::kCount);
    EXPECT_EQ(r.count, 4);
  }
}

TEST_F(ScanKernelTest, NoPredicatesMatchesEveryRow) {
  std::vector<int64_t> measures = {1, 2, 3, 4, 5};
  for (ScanBackend backend : {ScanBackend::kScalar, ScanBackend::kAvx2}) {
    ScanResult r = ScanColumnsWithBackend(backend, nullptr, 0,
                                          Int64Column(measures.data()),
                                          measures.size(), ScanProfile::kAll);
    EXPECT_EQ(r.count, 5);
    EXPECT_EQ(r.sum, 15);
    EXPECT_EQ(r.sum_squares, 55);
  }
}

TEST_F(ScanKernelTest, ForceScalarEnvControlsDispatch) {
  ::setenv("FEDAQP_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(ResolveScanBackend(), ScanBackend::kScalar);
  ::setenv("FEDAQP_FORCE_SCALAR", "0", 1);
  EXPECT_EQ(ResolveScanBackend(),
            Avx2Available() ? ScanBackend::kAvx2 : ScanBackend::kScalar);
  ::unsetenv("FEDAQP_FORCE_SCALAR");
  EXPECT_EQ(ResolveScanBackend(),
            Avx2Available() ? ScanBackend::kAvx2 : ScanBackend::kScalar);
}

TEST_F(ScanKernelTest, SetScanBackendOverridesCachedDispatch) {
  SetScanBackend(ScanBackend::kScalar);
  EXPECT_EQ(ActiveScanBackend(), ScanBackend::kScalar);
  SetScanBackend(ScanBackend::kAvx2);
  EXPECT_EQ(ActiveScanBackend(), ScanBackend::kAvx2);
}

// ------------------------------------------------- end-to-end bit identity --

Table SkewedTable(size_t rows, uint64_t seed) {
  Schema s;
  EXPECT_TRUE(s.AddDimension("a", 200).ok());
  EXPECT_TRUE(s.AddDimension("b", 100).ok());
  Table t(s);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.values = {rng.UniformInt(0, 199), rng.UniformInt(0, 99)};
    row.measure = rng.UniformInt(1, 1000);
    EXPECT_TRUE(t.Append(row).ok());
  }
  return t;
}

TEST_F(ScanKernelTest, StoreAnswersBitIdenticalAcrossBackendsAndShards) {
  // The acceptance property: for every layout and shard count, switching
  // the kernel backend changes nothing about the answers.
  Table t = SkewedTable(3000, 21);
  for (ClusterLayout layout :
       {ClusterLayout::kSequential, ClusterLayout::kSortedByFirstDim,
        ClusterLayout::kShuffled}) {
    ClusterStoreOptions opts;
    opts.cluster_capacity = 128;
    opts.layout = layout;
    Result<ClusterStore> store = ClusterStore::Build(t, opts);
    ASSERT_TRUE(store.ok());
    Rng rng(33);
    ThreadPool pool(2);
    for (int trial = 0; trial < 8; ++trial) {
      const Value lo = rng.UniformInt(0, 150);
      const Value hi = lo + rng.UniformInt(0, 49);
      for (Aggregation agg :
           {Aggregation::kCount, Aggregation::kSum,
            Aggregation::kSumSquares}) {
        RangeQuery q = RangeQueryBuilder(agg).Where(0, lo, hi).Build();
        SetScanBackend(ScanBackend::kScalar);
        const int64_t scalar_answer = store->EvaluateExact(q);
        SetScanBackend(ScanBackend::kAvx2);
        for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
          ShardedScanExecutor exec(shards, shards > 1 ? &pool : nullptr);
          EXPECT_EQ(store->EvaluateExact(q, &exec), scalar_answer)
              << "layout=" << static_cast<int>(layout)
              << " shards=" << shards;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fedaqp
