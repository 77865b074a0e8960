// Micro-bench and acceptance gate for the packed-column scan kernels: a
// single provider's store (1M rows default) scans a mixed COUNT/SUM/
// SUM_SQUARES workload single-shard under four execution variants:
//
//   baseline   the pre-kernel row-at-a-time scan (branchy predicate over
//              int64 rows, always accumulating all three aggregates) —
//              the seed behavior the speedup is denominated by. The store
//              is decoded to int64 columns once, outside the timed loop.
//   scalar     the scalar kernel over the resident store's packed
//              frame-of-reference columns (1/2/4 bytes per value here)
//   simd       the AVX2 kernel over the same packed resident columns
//              (runtime-dispatched; absent hosts fall back to scalar and
//              the speed gate is skipped)
//   mmap       the AVX2 kernel over the compressed mmap store, scanning
//              its frame-of-reference columns in place (delta-coded
//              columns decode per cluster)
//
// Every variant must produce bit-identical answers (the bench exits
// non-zero on any divergence, mmap included), and on AVX2 hosts the simd
// variant must clear >= 4x the baseline's single-shard throughput on the
// 1M-row store. A rows-vs-throughput curve over smaller stores lands in
// BENCH_scan_kernel.json for the cross-PR perf trajectory.
//
//   --rows=N --capacity=S --reps=R --seed=S --no_speed_gate --full

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "storage/cluster_store.h"
#include "storage/scan_kernel.h"
#include "storage/store_file.h"

namespace fedaqp {
namespace bench {
namespace {

/// One cluster decoded to plain int64 columns (the seed-era layout).
struct Int64Cluster {
  std::vector<std::vector<Value>> columns;
  std::vector<int64_t> measures;
};

std::vector<Int64Cluster> DecodeStore(const ClusterStore& store) {
  std::vector<Int64Cluster> out;
  store.ForEachCluster([&](const Cluster& cluster) {
    Int64Cluster decoded;
    decoded.columns.resize(cluster.num_dims());
    for (size_t i = 0; i < cluster.num_rows(); ++i) {
      for (size_t d = 0; d < cluster.num_dims(); ++d) {
        decoded.columns[d].push_back(cluster.at(i, d));
      }
      decoded.measures.push_back(cluster.measure(i));
    }
    out.push_back(std::move(decoded));
  });
  return out;
}

/// The seed-era scan: row-at-a-time, branchy, all three aggregates
/// regardless of what the query asks for. Kept verbatim as the bench's
/// denominator so the reported speedup is against real pre-kernel
/// behavior, not a strawman.
int64_t BaselineScanStore(const std::vector<Int64Cluster>& store,
                          const RangeQuery& query) {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t sum_squares = 0;
  for (const Int64Cluster& cluster : store) {
    for (size_t i = 0; i < cluster.measures.size(); ++i) {
      bool match = true;
      for (const auto& r : query.ranges()) {
        Value v = cluster.columns[r.dim_index][i];
        if (v < r.lo || v > r.hi) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      ++count;
      int64_t m = cluster.measures[i];
      sum += m;
      sum_squares += m * m;
    }
  }
  switch (query.aggregation()) {
    case Aggregation::kCount:
      return count;
    case Aggregation::kSum:
      return sum;
    case Aggregation::kSumSquares:
      return sum_squares;
  }
  return count;
}

std::vector<RangeQuery> Workload() {
  return {
      RangeQueryBuilder(Aggregation::kCount)
          .Where(0, 10, 150)
          .Where(1, 5, 80)
          .Build(),
      RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build(),
      RangeQueryBuilder(Aggregation::kSumSquares).Where(1, 0, 70).Build(),
  };
}

/// Best-of-3-batches time for `reps` whole-workload passes, in seconds
/// per pass; appends one pass's answers to `answers` for checksumming.
template <typename ScanFn>
double TimePasses(const std::vector<RangeQuery>& queries, size_t reps,
                  ScanFn&& scan, std::vector<double>* answers) {
  double best = -1.0;
  std::vector<int64_t> pass_answers(queries.size(), 0);
  for (int batch = 0; batch < 3; ++batch) {
    Stopwatch timer;
    for (size_t r = 0; r < reps; ++r) {
      for (size_t q = 0; q < queries.size(); ++q) {
        pass_answers[q] = scan(queries[q]);
      }
    }
    const double wall = timer.ElapsedSeconds() / static_cast<double>(reps);
    if (best < 0.0 || wall < best) best = wall;
  }
  if (answers != nullptr) {
    for (int64_t a : pass_answers) {
      answers->push_back(static_cast<double>(a));
    }
  }
  return best;
}

Result<ClusterStore> BuildStore(size_t rows, size_t capacity, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"a", 200, DistributionKind::kNormal, 0.5},
              {"b", 100, DistributionKind::kZipf, 1.2},
              {"c", 50, DistributionKind::kUniform, 0.0}};
  FEDAQP_ASSIGN_OR_RETURN(Table table, GenerateSynthetic(cfg));
  ClusterStoreOptions sopts;
  sopts.cluster_capacity = capacity;
  sopts.layout = ClusterLayout::kShuffled;
  sopts.shuffle_seed = seed ^ 0x7;
  return ClusterStore::Build(table, sopts);
}

struct VariantTimes {
  double baseline = 0.0;
  double scalar = 0.0;
  double simd = 0.0;
  double mmap = 0.0;
  bool identical = true;
};

VariantTimes RunVariants(const ClusterStore& store,
                         const std::vector<RangeQuery>& queries, size_t reps,
                         const std::string& mmap_path,
                         std::vector<double>* answers) {
  VariantTimes out;
  std::vector<double> base_answers;
  const std::vector<Int64Cluster> decoded = DecodeStore(store);
  out.baseline = TimePasses(queries, reps, [&](const RangeQuery& q) {
    return BaselineScanStore(decoded, q);
  }, &base_answers);

  std::vector<double> variant;
  SetScanBackend(ScanBackend::kScalar);
  out.scalar = TimePasses(queries, reps, [&](const RangeQuery& q) {
    return store.EvaluateExact(q);
  }, &variant);
  out.identical = out.identical && variant == base_answers;

  variant.clear();
  SetScanBackend(ScanBackend::kAvx2);
  out.simd = TimePasses(queries, reps, [&](const RangeQuery& q) {
    return store.EvaluateExact(q);
  }, &variant);
  out.identical = out.identical && variant == base_answers;

  Status saved = store.SaveMapped(mmap_path);
  Result<ClusterStore> mapped = saved.ok()
                                    ? ClusterStore::OpenMapped(mmap_path)
                                    : Result<ClusterStore>(saved);
  if (!mapped.ok()) {
    std::fprintf(stderr, "mmap store failed: %s\n",
                 mapped.status().ToString().c_str());
    out.identical = false;
  } else {
    variant.clear();
    out.mmap = TimePasses(queries, reps, [&](const RangeQuery& q) {
      return mapped->EvaluateExact(q);
    }, &variant);
    out.identical = out.identical && variant == base_answers;
  }
  std::remove(mmap_path.c_str());
  SetScanBackend(ResolveScanBackend());

  if (answers != nullptr) {
    answers->insert(answers->end(), base_answers.begin(), base_answers.end());
  }
  return out;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t rows = flags.GetInt("rows", full ? 4000000 : 1000000);
  const size_t capacity = flags.GetInt("capacity", 4096);
  const size_t reps = flags.GetInt("reps", full ? 3 : 5);
  const uint64_t seed = flags.GetInt("seed", 13);
  const bool speed_gate = !flags.Has("no_speed_gate") && Avx2Available();

  const std::vector<RangeQuery> queries = Workload();
  std::printf("scan_kernel: backend=%s (avx2 %s)\n",
              ScanBackendName(ResolveScanBackend()),
              Avx2Available() ? "available" : "unavailable");

  BenchJson json("scan_kernel");
  json.Set("capacity", capacity);
  json.Set("avx2_available", std::string(Avx2Available() ? "true" : "false"));
  std::vector<double> answers;
  bool identical = true;

  // Rows-vs-throughput curve; the largest point is the gated headline.
  const size_t curve_rows[] = {rows / 64, rows / 8, rows};
  VariantTimes headline;
  for (size_t point_rows : curve_rows) {
    if (point_rows == 0) continue;
    Result<ClusterStore> store = BuildStore(point_rows, capacity, seed);
    if (!store.ok()) {
      std::fprintf(stderr, "store build failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    // Constant total work along the curve: more reps at smaller sizes.
    const size_t point_reps = reps * (rows / point_rows);
    VariantTimes t = RunVariants(*store, queries, point_reps,
                                 "bench_scan_kernel.store.tmp", &answers);
    identical = identical && t.identical;
    if (point_rows == rows) headline = t;

    const double n = static_cast<double>(store->TotalRows()) *
                     static_cast<double>(queries.size());
    const std::string suffix = "_rows_" + std::to_string(point_rows);
    json.Set("baseline_rows_per_sec" + suffix, n / t.baseline);
    json.Set("scalar_rows_per_sec" + suffix, n / t.scalar);
    json.Set("simd_rows_per_sec" + suffix, n / t.simd);
    if (t.mmap > 0.0) json.Set("mmap_rows_per_sec" + suffix, n / t.mmap);
    std::printf(
        "  rows=%-8zu baseline %7.1f Mrows/s  scalar %7.1f  simd %7.1f  "
        "mmap %7.1f   identical=%s\n",
        point_rows, n / t.baseline / 1e6, n / t.scalar / 1e6,
        n / t.simd / 1e6, t.mmap > 0.0 ? n / t.mmap / 1e6 : 0.0,
        t.identical ? "yes" : "NO");
  }

  const double simd_speedup =
      headline.simd > 0.0 ? headline.baseline / headline.simd : 0.0;
  const double scalar_speedup =
      headline.scalar > 0.0 ? headline.baseline / headline.scalar : 0.0;
  const double mmap_speedup =
      headline.mmap > 0.0 ? headline.baseline / headline.mmap : 0.0;
  std::printf(
      "  headline (%zu rows, single shard): scalar %.2fx, simd %.2fx, "
      "mmap %.2fx over baseline\n",
      rows, scalar_speedup, simd_speedup, mmap_speedup);

  json.Set("rows", rows);
  json.Set("seconds_baseline", headline.baseline);
  json.Set("seconds_scalar", headline.scalar);
  json.Set("seconds_simd", headline.simd);
  json.Set("seconds_mmap", headline.mmap);
  json.Set("scalar_speedup", scalar_speedup);
  json.Set("simd_speedup_headline", simd_speedup);
  json.Set("mmap_speedup", mmap_speedup);
  json.Set("bit_identical", std::string(identical ? "true" : "false"));
  json.Set("answers_checksum", AnswersChecksum(answers));
  EmitRegistrySnapshot(&json, "storage.");
  json.Write();

  if (!identical) {
    std::fprintf(stderr, "FAIL: answer divergence across scan variants\n");
    return 1;
  }
  if (speed_gate && simd_speedup < 4.0) {
    std::fprintf(stderr,
                 "FAIL: simd speedup %.2fx below the 4x gate "
                 "(--no_speed_gate to waive)\n",
                 simd_speedup);
    return 1;
  }
  if (!speed_gate) {
    std::printf("  speed gate skipped (%s)\n",
                Avx2Available() ? "--no_speed_gate" : "no AVX2 on this host");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::bench::Run(argc, argv); }
