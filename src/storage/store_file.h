#ifndef FEDAQP_STORAGE_STORE_FILE_H_
#define FEDAQP_STORAGE_STORE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/cluster.h"
#include "storage/schema.h"

namespace fedaqp {

class ClusterStore;

/// Column encoding byte of the mapped store file's directory. The one
/// encoding is frame-of-reference: `reference` = column min, and each
/// value is stored as the unsigned offset (v - min) in `width` bytes, the
/// smallest byte width that fits the column's range. Width 0 encodes a
/// constant column (every value == reference). Open rejects any other
/// encoding byte.
enum class ColumnEncoding : uint8_t { kFor = 0 };

/// Magic tag of the mapped store format.
constexpr uint32_t kMappedStoreMagic = 0xFEDA0003;

/// A read-only, mmap-backed cluster store file:
///
///   [u32 magic][u32 version]
///   [u64 cluster_capacity][u64 num_clusters][u64 total_rows]
///   [i64 total_measure][schema]
///   per cluster: [u32 id][u64 num_rows]
///     per column (num_dims dims then the measure column):
///       [u8 encoding][u8 width][i64 reference][i64 min][i64 max]
///       [u64 offset][u64 byte_len]
///   [u64 data_size][data bytes...]
///
/// Open() maps the file read-only and validates the header, version and
/// every directory entry (widths, encodings, lengths, bounds) before any
/// decode touches the data section — a truncated or corrupted file is
/// rejected with a Status, never a crash. A column's bytes are exactly the
/// resident PackedColumn layout (little-endian unsigned offsets from
/// `reference`), so scans read them in place from the mapping without
/// decoding. The directory's min/max never steer a scan, so lying bounds
/// cannot change an answer. Resident memory stays O(1) per scan, not
/// O(file).
class MappedStoreFile {
 public:
  /// Serializes `store` (resident clusters) into the format above.
  static Status Save(const ClusterStore& store, const std::string& path);

  /// Maps and validates `path`. The returned object owns the mapping.
  static Result<std::shared_ptr<const MappedStoreFile>> Open(
      const std::string& path);

  ~MappedStoreFile();
  MappedStoreFile(const MappedStoreFile&) = delete;
  MappedStoreFile& operator=(const MappedStoreFile&) = delete;

  const Schema& schema() const { return schema_; }
  size_t cluster_capacity() const { return static_cast<size_t>(capacity_); }
  size_t num_clusters() const { return rows_.size(); }
  size_t num_dims() const { return schema_.num_dims(); }
  uint64_t total_rows() const { return total_rows_; }
  int64_t total_measure() const { return total_measure_; }
  /// Bytes of file currently mapped (the provider's real resident charge
  /// is the page cache's business, not the heap's).
  size_t mapped_bytes() const { return map_size_; }

  size_t cluster_rows(size_t c) const {
    return static_cast<size_t>(rows_[c]);
  }
  /// Observed per-dimension bounds from the directory (no decode).
  Value min_value(size_t c, size_t dim) const {
    return col(c, dim).min_value;
  }
  Value max_value(size_t c, size_t dim) const {
    return col(c, dim).max_value;
  }

  /// Decodes column `column` of cluster `c` into `out` (resized to the
  /// cluster's row count). `column` in [0, num_dims) selects a dimension;
  /// `column` == num_dims selects the measure column.
  void DecodeColumn(size_t c, size_t column, std::vector<int64_t>* out) const;

  /// The kernel view of column `column` of cluster `c`, in place in the
  /// mapping (valid while this file is open).
  PackedColumn ScanView(size_t c, size_t column) const;

  /// Copies cluster `c` into a resident Cluster (metadata build, row
  /// flattening — the streaming consumers); the packed bytes are copied
  /// as they are.
  Cluster MaterializeCluster(size_t c) const;

  /// Total mapped bytes across every open MappedStoreFile in the process
  /// (mirrors the `storage.bytes_mapped` gauge).
  static uint64_t TotalMappedBytes();

 private:
  struct ColInfo {
    uint8_t encoding = 0;
    uint8_t width = 0;
    int64_t reference = 0;
    int64_t min_value = 0;
    int64_t max_value = 0;
    uint64_t offset = 0;
    uint64_t byte_len = 0;
  };

  MappedStoreFile() = default;

  const ColInfo& col(size_t c, size_t column) const {
    return cols_[c * (schema_.num_dims() + 1) + column];
  }

  void* map_ = nullptr;
  size_t map_size_ = 0;
  const uint8_t* data_ = nullptr;
  uint64_t data_size_ = 0;

  Schema schema_;
  uint64_t capacity_ = 0;
  uint64_t total_rows_ = 0;
  int64_t total_measure_ = 0;
  std::vector<uint64_t> rows_;  // per-cluster row counts
  std::vector<ColInfo> cols_;   // flat: cluster-major, num_dims + 1 each
};

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_STORE_FILE_H_
