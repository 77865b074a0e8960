#include "metadata/cluster_metadata.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace fedaqp {

namespace {

/// Per-distinct-value row counts of `col`, ascending by value, for
/// Build's suffix sums. Counts densely over the packed offsets when their
/// range is below the row count and offsets map to values in order (no
/// wrap past INT64_MAX); otherwise sorts the decoded values and run-length
/// encodes them. Nothing read from a directory is trusted: the offset
/// range is measured here.
template <typename U>
void CountValues(PackedColumn col, size_t n,
                 std::vector<std::pair<Value, size_t>>* out) {
  uint64_t omin = ~uint64_t{0};
  uint64_t omax = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t o = PackedOffset<U>(col.data, i);
    omin = std::min(omin, o);
    omax = std::max(omax, o);
  }
  const uint64_t ref = static_cast<uint64_t>(col.reference);
  const bool in_order =
      omax <= static_cast<uint64_t>(INT64_MAX) - ref;  // ref + omax fits
  if (in_order && omax - omin < n) {
    std::vector<size_t> counts(omax - omin + 1, 0);
    for (size_t i = 0; i < n; ++i) ++counts[PackedOffset<U>(col.data, i) - omin];
    for (size_t k = 0; k < counts.size(); ++k) {
      if (counts[k] == 0) continue;
      out->emplace_back(static_cast<Value>(ref + omin + k), counts[k]);
    }
    return;
  }
  std::vector<Value> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = col.At(i);
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && values[j] == values[i]) ++j;
    out->emplace_back(values[i], j - i);
    i = j;
  }
}

}  // namespace

DimensionMeta DimensionMeta::Build(const Cluster& cluster, size_t dim,
                                   size_t capacity) {
  // Count occurrences per distinct value, then suffix-sum from the top so
  // each entry holds |rows >= v| / S.
  const PackedColumn col = cluster.column(dim);
  const size_t n = cluster.num_rows();
  std::vector<std::pair<Value, size_t>> counts;
  switch (col.width) {
    case 0:
      if (n > 0) counts.emplace_back(col.reference, n);
      break;
    case 1:
      CountValues<uint8_t>(col, n, &counts);
      break;
    case 2:
      CountValues<uint16_t>(col, n, &counts);
      break;
    case 4:
      CountValues<uint32_t>(col, n, &counts);
      break;
    default:
      CountValues<uint64_t>(col, n, &counts);
      break;
  }
  DimensionMeta meta;
  meta.entries_.resize(counts.size());
  size_t suffix = 0;
  for (size_t k = counts.size(); k-- > 0;) {
    suffix += counts[k].second;
    meta.entries_[k] =
        Entry{counts[k].first,
              static_cast<double>(suffix) / static_cast<double>(capacity)};
  }
  return meta;
}

double DimensionMeta::FractionGreaterEqual(Value v) const {
  // First entry with value >= v carries the tail fraction for v, because
  // rows with values in (v, entry.value) do not exist in this cluster.
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), v,
      [](const Entry& e, Value x) { return e.value < x; });
  if (it == entries_.end()) return 0.0;
  return it->fraction_ge;
}

double DimensionMeta::FractionInRange(Value lo, Value hi) const {
  if (lo > hi) return 0.0;
  double r = FractionGreaterEqual(lo) - FractionGreaterEqual(hi + 1);
  return r < 0.0 ? 0.0 : r;
}

void DimensionMeta::Serialize(ByteWriter* w) const {
  w->PutU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    w->PutI64(e.value);
    w->PutDouble(e.fraction_ge);
  }
}

Result<DimensionMeta> DimensionMeta::Deserialize(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  DimensionMeta meta;
  meta.entries_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Entry e;
    FEDAQP_ASSIGN_OR_RETURN(e.value, r->GetI64());
    FEDAQP_ASSIGN_OR_RETURN(e.fraction_ge, r->GetDouble());
    meta.entries_.push_back(e);
  }
  return meta;
}

ClusterMetadata ClusterMetadata::Build(const Cluster& cluster,
                                       size_t capacity) {
  ClusterMetadata meta;
  meta.cluster_id_ = cluster.id();
  meta.capacity_ = capacity > 0 ? capacity : 1;
  meta.dims_.reserve(cluster.num_dims());
  meta.mins_.reserve(cluster.num_dims());
  meta.maxs_.reserve(cluster.num_dims());
  for (size_t d = 0; d < cluster.num_dims(); ++d) {
    meta.dims_.push_back(DimensionMeta::Build(cluster, d, capacity));
    meta.mins_.push_back(cluster.MinValue(d));
    meta.maxs_.push_back(cluster.MaxValue(d));
  }
  return meta;
}

bool ClusterMetadata::Covers(const RangeQuery& query) const {
  for (const auto& r : query.ranges()) {
    if (r.dim_index >= dims_.size()) return false;
    // Empty clusters have min=0 > max=-1 and never cover anything.
    if (maxs_[r.dim_index] < r.lo || mins_[r.dim_index] > r.hi) return false;
  }
  return true;
}

double ClusterMetadata::ApproximateR(const RangeQuery& query) const {
  double r = 1.0;
  for (const auto& range : query.ranges()) {
    r *= dims_[range.dim_index].FractionInRange(range.lo, range.hi);
    if (r == 0.0) break;
  }
  // Floor non-zero products at one row's worth of mass (see header).
  double floor = 1.0 / static_cast<double>(capacity_);
  if (r > 0.0 && r < floor) r = floor;
  return r;
}

void ClusterMetadata::Serialize(ByteWriter* w) const {
  w->PutU32(cluster_id_);
  w->PutU64(capacity_);
  w->PutU32(static_cast<uint32_t>(dims_.size()));
  for (size_t d = 0; d < dims_.size(); ++d) {
    w->PutI64(mins_[d]);
    w->PutI64(maxs_[d]);
    dims_[d].Serialize(w);
  }
}

Result<ClusterMetadata> ClusterMetadata::Deserialize(ByteReader* r) {
  ClusterMetadata meta;
  FEDAQP_ASSIGN_OR_RETURN(meta.cluster_id_, r->GetU32());
  FEDAQP_ASSIGN_OR_RETURN(uint64_t cap, r->GetU64());
  meta.capacity_ = cap > 0 ? static_cast<size_t>(cap) : 1;
  FEDAQP_ASSIGN_OR_RETURN(uint32_t nd, r->GetU32());
  meta.dims_.reserve(nd);
  for (uint32_t d = 0; d < nd; ++d) {
    Value mn, mx;
    FEDAQP_ASSIGN_OR_RETURN(mn, r->GetI64());
    FEDAQP_ASSIGN_OR_RETURN(mx, r->GetI64());
    meta.mins_.push_back(mn);
    meta.maxs_.push_back(mx);
    FEDAQP_ASSIGN_OR_RETURN(DimensionMeta dm, DimensionMeta::Deserialize(r));
    meta.dims_.push_back(std::move(dm));
  }
  return meta;
}

size_t ClusterMetadata::SizeBytes() const {
  ByteWriter w;
  Serialize(&w);
  return w.size();
}

}  // namespace fedaqp
