#include "storage/cluster.h"

namespace fedaqp {

Cluster Cluster::FromRows(uint32_t id, size_t num_dims,
                          const std::vector<const Row*>& rows) {
  Cluster c;
  c.id_ = id;
  c.num_rows_ = rows.size();
  c.columns_.reserve(num_dims);
  c.mins_.resize(num_dims);
  c.maxs_.resize(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    c.columns_.push_back(PackedBuffer::Pack(
        rows.size(), [&](size_t i) { return rows[i]->values[d]; },
        &c.mins_[d], &c.maxs_[d]));
  }
  Value measure_min = 0;
  Value measure_max = 0;
  c.measures_ = PackedBuffer::Pack(
      rows.size(), [&](size_t i) { return rows[i]->measure; }, &measure_min,
      &measure_max);
  return c;
}

Cluster Cluster::FromPacked(uint32_t id, size_t num_rows,
                            std::vector<PackedBuffer> columns,
                            PackedBuffer measures, std::vector<Value> mins,
                            std::vector<Value> maxs) {
  Cluster c;
  c.id_ = id;
  c.num_rows_ = num_rows;
  c.columns_ = std::move(columns);
  c.measures_ = std::move(measures);
  c.mins_ = std::move(mins);
  c.maxs_ = std::move(maxs);
  return c;
}

ScanResult ScanColumnsForQuery(const RangeQuery& query,
                               const PackedColumn* columns,
                               PackedColumn measures, size_t num_rows,
                               ScanProfile profile) {
  const auto& ranges = query.ranges();
  // Predicates are tiny (one per constrained dimension); keep them on the
  // stack for the common arity and only fall back to the heap for very
  // wide conjunctions.
  constexpr size_t kStackPreds = 8;
  ColumnPredicate stack_preds[kStackPreds];
  std::vector<ColumnPredicate> heap_preds;
  ColumnPredicate* preds = stack_preds;
  if (ranges.size() > kStackPreds) {
    heap_preds.resize(ranges.size());
    preds = heap_preds.data();
  }
  for (size_t p = 0; p < ranges.size(); ++p) {
    preds[p].column = columns[ranges[p].dim_index];
    preds[p].lo = ranges[p].lo;
    preds[p].hi = ranges[p].hi;
  }
  return ScanColumns(preds, ranges.size(), measures, num_rows, profile);
}

ScanResult Cluster::Scan(const RangeQuery& query, ScanProfile profile) const {
  constexpr size_t kStackCols = 16;
  PackedColumn stack_cols[kStackCols];
  std::vector<PackedColumn> heap_cols;
  PackedColumn* cols = stack_cols;
  if (columns_.size() > kStackCols) {
    heap_cols.resize(columns_.size());
    cols = heap_cols.data();
  }
  for (const DimRange& range : query.ranges()) {
    cols[range.dim_index] = columns_[range.dim_index].view();
  }
  return ScanColumnsForQuery(query, cols, measures_.view(), num_rows_,
                             profile);
}

double Cluster::FractionGreaterEqual(size_t dim, Value v,
                                     size_t denominator) const {
  if (denominator == 0) return 0.0;
  const PackedColumn col = columns_[dim].view();
  size_t matching = 0;
  for (size_t i = 0; i < num_rows_; ++i) {
    if (col.At(i) >= v) ++matching;
  }
  return static_cast<double>(matching) / static_cast<double>(denominator);
}

}  // namespace fedaqp
