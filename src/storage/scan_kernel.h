#ifndef FEDAQP_STORAGE_SCAN_KERNEL_H_
#define FEDAQP_STORAGE_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "storage/range_query.h"
#include "storage/row.h"

namespace fedaqp {

/// Result of scanning one cluster (or any contiguous column block).
struct ScanResult {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t sum_squares = 0;

  /// Picks the aggregate requested by `agg`.
  int64_t For(Aggregation agg) const {
    switch (agg) {
      case Aggregation::kCount:
        return count;
      case Aggregation::kSum:
        return sum;
      case Aggregation::kSumSquares:
        return sum_squares;
    }
    return 0;
  }
};

/// Which aggregates a scan pass must produce. A specialized profile lets
/// the kernel skip the work the caller throws away: a COUNT query never
/// loads the measure column, a SUM query never pays the sum-squares
/// multiplies. Aggregates outside the profile come back as 0.
enum class ScanProfile : uint8_t {
  kCount = 0,
  kSum = 1,
  kSumSquares = 2,
  kAll = 3,
};

/// The profile that produces exactly the aggregate `agg` asks for.
inline ScanProfile ProfileFor(Aggregation agg) {
  switch (agg) {
    case Aggregation::kCount:
      return ScanProfile::kCount;
    case Aggregation::kSum:
      return ScanProfile::kSum;
    case Aggregation::kSumSquares:
      return ScanProfile::kSumSquares;
  }
  return ScanProfile::kAll;
}

/// True when `profile` needs the measure column at all.
inline bool ProfileNeedsMeasures(ScanProfile profile) {
  return profile != ScanProfile::kCount;
}

/// The one column layout every scan reads: frame-of-reference offsets.
/// Row i stores an unsigned little-endian integer o_i in `width` bytes at
/// `data + i * width`, and its value is `reference + o_i` (mod 2^64, the
/// same wrapping decode the mapped store file uses). `width` is 0 (a
/// constant column: every value is `reference` and `data` is never read),
/// 1, 2, 4 or 8; width 8 with reference 0 is a plain int64 column. Resident
/// clusters and the mapped store's kFor columns share this byte layout, so
/// one kernel scans both in place.
struct PackedColumn {
  const uint8_t* data = nullptr;
  uint8_t width = 8;
  int64_t reference = 0;

  /// Value of row `row`.
  Value At(size_t row) const;
};

/// Offset of row `row` in packed bytes of width sizeof(U) (U is uint8_t,
/// uint16_t, uint32_t or uint64_t).
template <typename U>
inline uint64_t PackedOffset(const uint8_t* data, size_t row) {
  U v;
  std::memcpy(&v, data + row * sizeof(U), sizeof(U));
  return v;
}

/// A plain int64 array viewed as a width-8, reference-0 packed column.
inline PackedColumn Int64Column(const int64_t* values) {
  PackedColumn col;
  col.data = reinterpret_cast<const uint8_t*>(values);
  return col;
}

/// The narrowest packed width (0, 1, 2, 4 or 8 bytes) that holds every
/// offset in [0, max_offset].
inline uint8_t PackedWidthFor(uint64_t max_offset) {
  if (max_offset == 0) return 0;
  if (max_offset <= 0xFFu) return 1;
  if (max_offset <= 0xFFFFu) return 2;
  if (max_offset <= 0xFFFFFFFFull) return 4;
  return 8;
}

/// One range predicate in kernel form: a packed column of `num_rows`
/// values and the closed interval [lo, hi] they are tested against.
struct ColumnPredicate {
  PackedColumn column;
  Value lo = 0;
  Value hi = 0;
};

/// Kernel implementations selectable at runtime.
enum class ScanBackend : uint8_t { kScalar = 0, kAvx2 = 1 };

const char* ScanBackendName(ScanBackend backend);

/// True when AVX2 kernels were compiled in AND this CPU executes them.
bool Avx2Available();

/// The dispatch rule, evaluated fresh: AVX2 when available, unless the
/// FEDAQP_FORCE_SCALAR environment variable is set to anything but "" or
/// "0" (the determinism escape hatch for bit-identity property suites and
/// for triaging a suspected kernel divergence in production).
ScanBackend ResolveScanBackend();

/// The backend ScanColumns dispatches to. Resolved once (first call) from
/// ResolveScanBackend(), then cached in an atomic so the hot path pays one
/// relaxed load.
ScanBackend ActiveScanBackend();

/// Overrides the cached dispatch decision (tests and benches comparing
/// backends in one process). Takes effect for scans started after the
/// call; racing scans finish on the backend they started with.
void SetScanBackend(ScanBackend backend);

/// Evaluates the conjunction of `preds` (all closed intervals) over rows
/// [0, num_rows) and accumulates the profile's aggregates over matching
/// rows. `measures` is not read when the profile is kCount.
///
/// Every backend works in offset space: each predicate is first
/// translated into the offsets its column can represent (an empty
/// translation answers 0 rows, one covering every offset is dropped), the
/// kernel counts matches and sums measure offsets o and o^2, and the
/// aggregates are rebuilt exactly modulo 2^64:
///   SUM   = sum(o) + count * ref
///   SUMSQ = sum(o^2) + 2 * ref * sum(o) + count * ref^2
/// The translation uses only each column's reference and width, never
/// directory min/max, so the answer equals decode-then-scan for any bytes.
/// Integer arithmetic needs no reassociation caveats, so every backend is
/// bit-identical by construction.
ScanResult ScanColumns(const ColumnPredicate* preds, size_t num_preds,
                       PackedColumn measures, size_t num_rows,
                       ScanProfile profile);

/// ScanColumns pinned to an explicit backend (bit-identity suites, the
/// scan-kernel bench). kAvx2 on a host without AVX2 falls back to scalar.
ScanResult ScanColumnsWithBackend(ScanBackend backend,
                                  const ColumnPredicate* preds,
                                  size_t num_preds, PackedColumn measures,
                                  size_t num_rows, ScanProfile profile);

namespace internal {
/// A predicate translated into its column's offset space: row i matches
/// iff (o_i - start) mod 2^(8 * width) <= span. The matching offsets of a
/// closed value interval always form one such cyclic arc.
struct OffsetPredicate {
  const uint8_t* data = nullptr;
  uint8_t width = 8;
  uint64_t start = 0;
  uint64_t span = 0;
};

/// What the kernels produce: the match count and the wrapping sums of the
/// matching rows' measure offsets and squared offsets. sum and sum_squares
/// are 0 for kCount; kSumSquares fills both.
struct OffsetSums {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t sum_squares = 0;
};

/// The AVX2 translation unit's entry point (scan_kernel_avx2.cc, compiled
/// with -mavx2 when the toolchain supports it; falls back to the scalar
/// kernel otherwise). Callers must check Avx2Available() first.
/// `measure_width` is 1, 2, 4 or 8 unless the profile is kCount.
OffsetSums Avx2ScanOffsets(const OffsetPredicate* preds, size_t num_preds,
                           const uint8_t* measures, uint8_t measure_width,
                           size_t num_rows, ScanProfile profile);
/// True when the AVX2 TU was really compiled with AVX2 enabled.
bool Avx2KernelsCompiledIn();
/// The scalar reference kernel.
OffsetSums ScalarScanOffsets(const OffsetPredicate* preds, size_t num_preds,
                             const uint8_t* measures, uint8_t measure_width,
                             size_t num_rows, ScanProfile profile);
}  // namespace internal

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_SCAN_KERNEL_H_
