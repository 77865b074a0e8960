#ifndef FEDAQP_STORAGE_CLUSTER_H_
#define FEDAQP_STORAGE_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/range_query.h"
#include "storage/row.h"
#include "storage/scan_kernel.h"
#include "storage/schema.h"

namespace fedaqp {

/// Owned bytes of one packed column (see PackedColumn): frame-of-reference
/// offsets at the narrowest width that fits, or plain int64 when nothing
/// narrower does.
class PackedBuffer {
 public:
  PackedBuffer() = default;
  /// Adopts bytes already in PackedColumn layout (`bytes` holds
  /// num_rows * width bytes).
  PackedBuffer(std::vector<uint8_t> bytes, uint8_t width, int64_t reference)
      : bytes_(std::move(bytes)), width_(width), reference_(reference) {}

  /// Packs the `n` values `value_at(0..n-1)`: one pass finds the bounds
  /// (written to `*min_out` / `*max_out`; 0 / -1 when n is 0), a second
  /// writes each offset `v - min` straight into its final width.
  template <typename ValueAt>
  static PackedBuffer Pack(size_t n, ValueAt value_at, Value* min_out,
                           Value* max_out);

  PackedColumn view() const {
    PackedColumn col;
    col.data = bytes_.data();
    col.width = width_;
    col.reference = reference_;
    return col;
  }

 private:
  template <typename U, typename ValueAt>
  void WriteOffsets(size_t n, ValueAt value_at);

  std::vector<uint8_t> bytes_;
  uint8_t width_ = 0;
  int64_t reference_ = 0;
};

/// A storage cluster: the paper's unit of sampling (a table page / HDFS
/// block analogue). Stores rows column-wise as packed frame-of-reference
/// columns (1, 2 or 4 bytes per value when the column's span fits, plain
/// int64 otherwise), so a scan moves only the bytes the data needs —
/// the real CPU cost that the paper's speed-up numbers are a ratio of.
/// Scans run through the kernels in storage/scan_kernel.h (AVX2 with a
/// bit-identical scalar fallback).
class Cluster {
 public:
  /// Packs `rows` (each with `num_dims` values) into a cluster, writing
  /// every column directly at its final width (no int64 staging copy).
  static Cluster FromRows(uint32_t id, size_t num_dims,
                          const std::vector<const Row*>& rows);

  /// Assembles a cluster from already-packed columns (the mapped store's
  /// materialization path). `mins`/`maxs` are the per-dim observed bounds
  /// the on-disk directory already holds; sizes must be consistent.
  static Cluster FromPacked(uint32_t id, size_t num_rows,
                            std::vector<PackedBuffer> columns,
                            PackedBuffer measures, std::vector<Value> mins,
                            std::vector<Value> maxs);

  uint32_t id() const { return id_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_dims() const { return columns_.size(); }

  /// Value of dimension `dim` in row `row` (decodes one entry).
  Value at(size_t row, size_t dim) const { return columns_[dim].view().At(row); }
  /// Measure of row `row` (decodes one entry).
  int64_t measure(size_t row) const { return measures_.view().At(row); }
  /// Packed view of dimension `dim` (kernel input).
  PackedColumn column(size_t dim) const { return columns_[dim].view(); }
  /// Packed view of the measure column (kernel input).
  PackedColumn measures() const { return measures_.view(); }

  /// Full scan evaluating `query` over every row. `profile` selects which
  /// aggregates are produced (default: all three); aggregates outside the
  /// profile come back as 0, the ones inside are identical to a kAll scan.
  ScanResult Scan(const RangeQuery& query,
                  ScanProfile profile = ScanProfile::kAll) const;

  /// Observed min value of dimension `dim` (0 if the cluster is empty).
  Value MinValue(size_t dim) const { return mins_[dim]; }
  /// Observed max value of dimension `dim` (-1 if the cluster is empty).
  Value MaxValue(size_t dim) const { return maxs_[dim]; }

  /// Exact fraction of rows with value >= v on `dim`, denominated by
  /// `denominator` (the agreed cluster capacity S in the paper's R_{d>=}).
  double FractionGreaterEqual(size_t dim, Value v, size_t denominator) const;

  /// Bytes a provider would ship to share this cluster's raw rows — used
  /// to charge SMC row sharing. Deliberately 8 bytes per value whatever
  /// the packed width in memory: it models the wire cost of raw int64
  /// rows, and the SimNetwork byte pins depend on it.
  size_t ApproxBytes() const {
    return num_rows() * (num_dims() + 1) * sizeof(int64_t);
  }

 private:
  Cluster() = default;

  uint32_t id_ = 0;
  size_t num_rows_ = 0;
  std::vector<PackedBuffer> columns_;
  PackedBuffer measures_;
  std::vector<Value> mins_;
  std::vector<Value> maxs_;
};

/// Runs the scan kernel for `query` over packed columns: `columns[d]` must
/// be the column of dimension `d` for every dimension the query's ranges
/// reference (other slots are never read). Shared by the resident Cluster
/// scan and the mapped store's in-place scan so both feed the exact same
/// kernels.
ScanResult ScanColumnsForQuery(const RangeQuery& query,
                               const PackedColumn* columns,
                               PackedColumn measures, size_t num_rows,
                               ScanProfile profile);

template <typename U, typename ValueAt>
void PackedBuffer::WriteOffsets(size_t n, ValueAt value_at) {
  bytes_.resize(n * sizeof(U));
  uint8_t* out = bytes_.data();
  const uint64_t ref = static_cast<uint64_t>(reference_);
  for (size_t i = 0; i < n; ++i) {
    const U o = static_cast<U>(static_cast<uint64_t>(value_at(i)) - ref);
    std::memcpy(out + i * sizeof(U), &o, sizeof(U));
  }
}

template <typename ValueAt>
PackedBuffer PackedBuffer::Pack(size_t n, ValueAt value_at, Value* min_out,
                                Value* max_out) {
  PackedBuffer buf;
  if (n == 0) {
    *min_out = 0;
    *max_out = -1;
    return buf;
  }
  Value mn = value_at(0);
  Value mx = mn;
  for (size_t i = 1; i < n; ++i) {
    const Value v = value_at(i);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  *min_out = mn;
  *max_out = mx;
  buf.width_ = PackedWidthFor(static_cast<uint64_t>(mx) -
                              static_cast<uint64_t>(mn));
  // Width 8 keeps the plain int64 values (reference 0).
  buf.reference_ = buf.width_ == 8 ? 0 : mn;
  switch (buf.width_) {
    case 0:
      break;
    case 1:
      buf.WriteOffsets<uint8_t>(n, value_at);
      break;
    case 2:
      buf.WriteOffsets<uint16_t>(n, value_at);
      break;
    case 4:
      buf.WriteOffsets<uint32_t>(n, value_at);
      break;
    default:
      buf.WriteOffsets<uint64_t>(n, value_at);
      break;
  }
  return buf;
}

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_CLUSTER_H_
