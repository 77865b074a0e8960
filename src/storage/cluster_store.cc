#include "storage/cluster_store.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/store_file.h"

namespace fedaqp {

/// Store-level scan telemetry (S4): resolved once, incremented lock-free.
void RecordStoreScan(size_t rows, double seconds) {
  static obs::Counter* rows_scanned =
      obs::MetricRegistry::Global().GetCounter("storage.rows_scanned");
  static obs::Histogram* scan_seconds =
      obs::MetricRegistry::Global().GetHistogram("storage.scan_seconds");
  rows_scanned->Add(rows);
  scan_seconds->Record(seconds);
}

namespace {

/// Adds modulo 2^64 like the scan kernels' accumulators (a signed `+`
/// would be undefined once a SUMSQ wraps).
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

}  // namespace

Result<ClusterStore> ClusterStore::Build(const Table& table,
                                         const ClusterStoreOptions& options) {
  if (options.cluster_capacity == 0) {
    return Status::InvalidArgument("cluster capacity must be positive");
  }
  if (table.schema().num_dims() == 0) {
    return Status::InvalidArgument("cannot build clusters over an empty schema");
  }

  std::vector<size_t> order(table.num_rows());
  std::iota(order.begin(), order.end(), 0);
  switch (options.layout) {
    case ClusterLayout::kSequential:
      break;
    case ClusterLayout::kSortedByFirstDim:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return table.row(a).values[0] < table.row(b).values[0];
      });
      break;
    case ClusterLayout::kShuffled: {
      Rng rng(options.shuffle_seed);
      rng.Shuffle(&order);
      break;
    }
  }

  ClusterStore store(table.schema(), options);
  const size_t dims = table.schema().num_dims();
  const size_t rows = order.size();
  if (rows == 0) return store;
  // Balanced chunking: ceil(rows/S) clusters whose sizes differ by at most
  // one row. A naive "fill to S" split instead leaves a runt final cluster
  // whose proportions (denominated by the shared S) are quadratically
  // underestimated by the Eq. 1 product — a single sampled runt then
  // blows up the Hansen-Hurwitz term y/p.
  const size_t num_clusters =
      (rows + options.cluster_capacity - 1) / options.cluster_capacity;
  const size_t base = rows / num_clusters;
  const size_t extra = rows % num_clusters;  // first `extra` get base+1
  size_t next_row = 0;
  int64_t total_measure = 0;
  store.clusters_.reserve(num_clusters);
  std::vector<const Row*> members;
  for (size_t c = 0; c < num_clusters; ++c) {
    const size_t size = base + (c < extra ? 1 : 0);
    members.clear();
    for (size_t i = 0; i < size; ++i) {
      const Row& row = table.row(order[next_row++]);
      total_measure += row.measure;
      members.push_back(&row);
    }
    store.clusters_.push_back(
        Cluster::FromRows(static_cast<uint32_t>(c), dims, members));
  }
  store.total_rows_ = rows;
  store.total_measure_ = total_measure;
  return store;
}

Result<ClusterStore> ClusterStore::OpenMapped(const std::string& path,
                                              size_t num_scan_shards) {
  FEDAQP_ASSIGN_OR_RETURN(std::shared_ptr<const MappedStoreFile> file,
                          MappedStoreFile::Open(path));
  ClusterStoreOptions options;
  options.cluster_capacity = file->cluster_capacity();
  options.layout = ClusterLayout::kSequential;
  options.num_scan_shards = num_scan_shards;
  ClusterStore store(file->schema(), options);
  store.total_rows_ = static_cast<size_t>(file->total_rows());
  store.total_measure_ = file->total_measure();
  store.mapped_file_ = std::move(file);
  return store;
}

Status ClusterStore::SaveMapped(const std::string& path) const {
  return MappedStoreFile::Save(*this, path);
}

size_t ClusterStore::MappedBytes() const {
  return mapped_file_ != nullptr ? mapped_file_->mapped_bytes() : 0;
}

size_t ClusterStore::num_clusters() const {
  return mapped_file_ != nullptr ? mapped_file_->num_clusters()
                                 : clusters_.size();
}

size_t ClusterStore::ClusterRows(size_t i) const {
  return mapped_file_ != nullptr ? mapped_file_->cluster_rows(i)
                                 : clusters_[i].num_rows();
}

ScanResult ClusterStore::ScanCluster(size_t i, const RangeQuery& query,
                                     ScanProfile profile) const {
  if (mapped_file_ == nullptr) {
    return clusters_[i].Scan(query, profile);
  }
  const MappedStoreFile& file = *mapped_file_;
  const size_t dims = file.num_dims();

  constexpr size_t kStackCols = 16;
  PackedColumn stack_cols[kStackCols];
  std::vector<PackedColumn> heap_cols;
  PackedColumn* cols = stack_cols;
  if (dims > kStackCols) {
    heap_cols.resize(dims);
    cols = heap_cols.data();
  }
  for (const DimRange& range : query.ranges()) {
    cols[range.dim_index] = file.ScanView(i, range.dim_index);
  }
  PackedColumn measures;
  if (ProfileNeedsMeasures(profile)) measures = file.ScanView(i, dims);
  return ScanColumnsForQuery(query, cols, measures, file.cluster_rows(i),
                             profile);
}

void ClusterStore::ForEachCluster(
    const std::function<void(const Cluster&)>& fn) const {
  if (mapped_file_ == nullptr) {
    for (const Cluster& c : clusters_) fn(c);
    return;
  }
  for (size_t c = 0; c < mapped_file_->num_clusters(); ++c) {
    Cluster materialized = mapped_file_->MaterializeCluster(c);
    fn(materialized);
  }
}

int64_t ClusterStore::EvaluateExact(const RangeQuery& query,
                                    const ShardedScanExecutor* exec,
                                    ShardScanStats* stats) const {
  const ShardedScanExecutor& ex = ShardedScanExecutor::OrInline(exec);
  const size_t n = num_clusters();
  // Only the requested aggregate is computed — COUNT never touches the
  // measure column, SUM never pays the sum-squares multiplies (S1).
  const ScanProfile profile = ProfileFor(query.aggregation());
  const size_t num_shards = ex.NumShardsFor(n);
  // One integer partial per shard; integer addition commutes, but the
  // merge still walks shard order so the code path stays identical to the
  // floating-point merges elsewhere.
  std::vector<int64_t> partials(num_shards, 0);
  std::vector<double> seconds =
      ex.ForEachShard(n, [&](size_t shard, ShardRange range) {
        int64_t acc = 0;
        for (size_t c = range.begin; c < range.end; ++c) {
          acc = WrapAdd(acc, ScanCluster(c, query, profile)
                                 .For(query.aggregation()));
        }
        partials[shard] = acc;
      });
  int64_t total = 0;
  for (int64_t p : partials) total = WrapAdd(total, p);
  const double max_seconds = ShardedScanExecutor::MaxSeconds(seconds);
  RecordStoreScan(TotalRows(), max_seconds);
  if (stats != nullptr) {
    stats->clusters_scanned += n;
    stats->rows_scanned += TotalRows();
    stats->max_shard_seconds += max_seconds;
  }
  return total;
}

Result<ScanResult> ClusterStore::ScanClusters(const RangeQuery& query,
                                              const std::vector<uint32_t>& ids,
                                              const ShardedScanExecutor* exec,
                                              ShardScanStats* stats,
                                              ScanProfile profile) const {
  const size_t n = num_clusters();
  size_t rows = 0;
  for (uint32_t id : ids) {
    if (id >= n) {
      return Status::InvalidArgument("scan clusters: cluster id " +
                                     std::to_string(id) + " out of range");
    }
    rows += ClusterRows(id);
  }
  // Duplicate check in O(|ids| log |ids|) on a scratch copy — the id list
  // (a covering set) is usually far smaller than the store.
  std::vector<uint32_t> sorted_ids(ids);
  std::sort(sorted_ids.begin(), sorted_ids.end());
  auto dup = std::adjacent_find(sorted_ids.begin(), sorted_ids.end());
  if (dup != sorted_ids.end()) {
    return Status::InvalidArgument("scan clusters: duplicate cluster id " +
                                   std::to_string(*dup) +
                                   " would double-count");
  }

  const ShardedScanExecutor& ex = ShardedScanExecutor::OrInline(exec);
  const size_t num_shards = ex.NumShardsFor(ids.size());
  std::vector<ScanResult> partials(num_shards);
  std::vector<double> seconds =
      ex.ForEachShard(ids.size(), [&](size_t shard, ShardRange range) {
        ScanResult acc;
        for (size_t i = range.begin; i < range.end; ++i) {
          ScanResult r = ScanCluster(ids[i], query, profile);
          acc.count += r.count;
          acc.sum = WrapAdd(acc.sum, r.sum);
          acc.sum_squares = WrapAdd(acc.sum_squares, r.sum_squares);
        }
        partials[shard] = acc;
      });
  ScanResult out;
  for (const ScanResult& p : partials) {
    out.count += p.count;
    out.sum = WrapAdd(out.sum, p.sum);
    out.sum_squares = WrapAdd(out.sum_squares, p.sum_squares);
  }
  const double max_seconds = ShardedScanExecutor::MaxSeconds(seconds);
  RecordStoreScan(rows, max_seconds);
  if (stats != nullptr) {
    stats->clusters_scanned += ids.size();
    stats->rows_scanned += rows;
    stats->max_shard_seconds += max_seconds;
  }
  return out;
}

}  // namespace fedaqp
