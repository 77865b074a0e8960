#include "storage/scan_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

namespace fedaqp {

namespace {

/// All-ones in the low 8 * width bits: the offset range of a width.
inline uint64_t OffsetMask(uint8_t width) {
  return width >= 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
}

}  // namespace

Value PackedColumn::At(size_t row) const {
  uint64_t o = 0;
  switch (width) {
    case 0:
      break;
    case 1:
      o = PackedOffset<uint8_t>(data, row);
      break;
    case 2:
      o = PackedOffset<uint16_t>(data, row);
      break;
    case 4:
      o = PackedOffset<uint32_t>(data, row);
      break;
    default:
      o = PackedOffset<uint64_t>(data, row);
      break;
  }
  return static_cast<Value>(static_cast<uint64_t>(reference) + o);
}

namespace internal {
namespace {

/// Scalar kernels run in 32-row blocks like the AVX2 ones: each predicate
/// turns a block into a match mask at its own width, the masks AND, and
/// the measure pass reads only the surviving rows.
constexpr size_t kBlockRows = 32;

template <typename U>
uint32_t ScalarBlockMask(const uint8_t* p, size_t rows, uint64_t start,
                         uint64_t span) {
  uint32_t mask = 0;
  for (size_t j = 0; j < rows; ++j) {
    const U t = static_cast<U>(PackedOffset<U>(p, j) - start);
    mask |= static_cast<uint32_t>(t <= span) << j;
  }
  return mask;
}

uint32_t ScalarPredicateMask(const OffsetPredicate& pred, size_t row,
                             size_t rows) {
  const uint8_t* p = pred.data + row * pred.width;
  switch (pred.width) {
    case 1:
      return ScalarBlockMask<uint8_t>(p, rows, pred.start, pred.span);
    case 2:
      return ScalarBlockMask<uint16_t>(p, rows, pred.start, pred.span);
    case 4:
      return ScalarBlockMask<uint32_t>(p, rows, pred.start, pred.span);
    default:
      return ScalarBlockMask<uint64_t>(p, rows, pred.start, pred.span);
  }
}

/// The profile- and measure-width-specialized scalar kernel (kCount, kSum
/// or kAll; the dispatcher folds kSumSquares into kAll). Sums wrap modulo
/// 2^64 in uint64, exactly like the AVX2 lanes.
template <ScanProfile P, typename M>
OffsetSums ScalarScanImpl(const OffsetPredicate* preds, size_t num_preds,
                          const uint8_t* measures, size_t num_rows) {
  constexpr bool kSums = P != ScanProfile::kCount;
  constexpr bool kSquares = P == ScanProfile::kAll;
  OffsetSums out;
  for (size_t row = 0; row < num_rows; row += kBlockRows) {
    const size_t rows = std::min(kBlockRows, num_rows - row);
    uint32_t mask = rows == kBlockRows ? ~uint32_t{0}
                                       : (uint32_t{1} << rows) - 1;
    for (size_t p = 0; p < num_preds && mask != 0; ++p) {
      mask &= ScalarPredicateMask(preds[p], row, rows);
    }
    out.count += static_cast<uint64_t>(__builtin_popcount(mask));
    if (kSums) {
      for (uint32_t m = mask; m != 0; m &= m - 1) {
        const size_t j = row + static_cast<size_t>(__builtin_ctz(m));
        const uint64_t o = PackedOffset<M>(measures, j);
        out.sum += o;
        if (kSquares) out.sum_squares += o * o;
      }
    }
  }
  return out;
}

template <ScanProfile P>
OffsetSums ScalarScanProfile(const OffsetPredicate* preds, size_t num_preds,
                             const uint8_t* measures, uint8_t measure_width,
                             size_t num_rows) {
  switch (measure_width) {
    case 1:
      return ScalarScanImpl<P, uint8_t>(preds, num_preds, measures, num_rows);
    case 2:
      return ScalarScanImpl<P, uint16_t>(preds, num_preds, measures,
                                         num_rows);
    case 4:
      return ScalarScanImpl<P, uint32_t>(preds, num_preds, measures,
                                         num_rows);
    default:
      return ScalarScanImpl<P, uint64_t>(preds, num_preds, measures,
                                         num_rows);
  }
}

}  // namespace

OffsetSums ScalarScanOffsets(const OffsetPredicate* preds, size_t num_preds,
                             const uint8_t* measures, uint8_t measure_width,
                             size_t num_rows, ScanProfile profile) {
  switch (profile) {
    case ScanProfile::kCount:
      return ScalarScanImpl<ScanProfile::kCount, uint8_t>(preds, num_preds,
                                                          nullptr, num_rows);
    case ScanProfile::kSum:
      return ScalarScanProfile<ScanProfile::kSum>(preds, num_preds, measures,
                                                  measure_width, num_rows);
    case ScanProfile::kSumSquares:
    case ScanProfile::kAll:
      break;
  }
  // kSumSquares needs sum(o) as well to rebuild around the reference, so
  // it shares kAll's kernel.
  return ScalarScanProfile<ScanProfile::kAll>(preds, num_preds, measures,
                                              measure_width, num_rows);
}

}  // namespace internal

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// -1 = unresolved; otherwise a ScanBackend value.
std::atomic<int> g_backend{-1};

}  // namespace

const char* ScanBackendName(ScanBackend backend) {
  switch (backend) {
    case ScanBackend::kScalar:
      return "scalar";
    case ScanBackend::kAvx2:
      return "avx2";
  }
  return "?";
}

bool Avx2Available() {
  return internal::Avx2KernelsCompiledIn() && CpuHasAvx2();
}

ScanBackend ResolveScanBackend() {
  const char* force = std::getenv("FEDAQP_FORCE_SCALAR");
  const bool forced_scalar =
      force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0');
  if (forced_scalar || !Avx2Available()) return ScanBackend::kScalar;
  return ScanBackend::kAvx2;
}

ScanBackend ActiveScanBackend() {
  int cached = g_backend.load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = static_cast<int>(ResolveScanBackend());
    g_backend.store(cached, std::memory_order_relaxed);
  }
  return static_cast<ScanBackend>(cached);
}

void SetScanBackend(ScanBackend backend) {
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
}

namespace {

/// How one predicate translates into its column's offset space.
enum class Translation { kNone, kAll, kArc };

/// Translates `pred` into offset space. The decoded value of offset o is
/// v = ref + o (mod 2^64), and v lies in [lo, hi] iff
/// (o - a) mod 2^64 <= R with a = lo - ref and R = hi - lo: an arc of the
/// 2^64 ring starting at a. Restricted to the width's offsets [0, M] that
/// arc becomes at most two pieces, [a, ...] and a wrapped [0, ...], and
/// two pieces that touch both ends of [0, M] are again one arc modulo
/// 2^(8 * width). Only the reference and width are read, so the result is
/// exact for any stored bytes.
Translation TranslatePredicate(const ColumnPredicate& pred,
                               internal::OffsetPredicate* out) {
  if (pred.lo > pred.hi) return Translation::kNone;
  const uint64_t m = OffsetMask(pred.column.width);
  const uint64_t a = static_cast<uint64_t>(pred.lo) -
                     static_cast<uint64_t>(pred.column.reference);
  const uint64_t r =
      static_cast<uint64_t>(pred.hi) - static_cast<uint64_t>(pred.lo);
  const bool wraps = r > ~a;  // a + r passes 2^64 - 1
  const uint64_t end = a + r;
  const bool head = a <= m;   // piece [a, ...] starts inside [0, m]
  uint64_t start = 0;
  uint64_t span = 0;
  if (head && wraps) {
    const uint64_t tail_end = std::min(end, m);  // wrapped piece [0, tail_end]
    if (tail_end + 1 >= a) return Translation::kAll;
    start = a;
    span = (tail_end - a) & m;
  } else if (head) {
    start = a;
    span = std::min(end, m) - a;
  } else if (wraps) {
    start = 0;
    span = std::min(end, m);
  } else {
    return Translation::kNone;
  }
  if (span == m) return Translation::kAll;
  out->data = pred.column.data;
  out->width = pred.column.width;
  out->start = start;
  out->span = span;
  return Translation::kArc;
}

/// Rebuilds the value-space aggregates from offset sums, modulo 2^64.
ScanResult Reconstruct(const internal::OffsetSums& sums, int64_t reference,
                       ScanProfile profile) {
  const uint64_t ref = static_cast<uint64_t>(reference);
  ScanResult out;
  out.count = static_cast<int64_t>(sums.count);
  if (profile == ScanProfile::kSum || profile == ScanProfile::kAll) {
    out.sum = static_cast<int64_t>(sums.sum + sums.count * ref);
  }
  if (profile == ScanProfile::kSumSquares || profile == ScanProfile::kAll) {
    out.sum_squares = static_cast<int64_t>(
        sums.sum_squares + 2 * ref * sums.sum + sums.count * ref * ref);
  }
  return out;
}

}  // namespace

ScanResult ScanColumnsWithBackend(ScanBackend backend,
                                  const ColumnPredicate* preds,
                                  size_t num_preds, PackedColumn measures,
                                  size_t num_rows, ScanProfile profile) {
  // Predicates are tiny (one per constrained dimension); keep them on the
  // stack for the common arity and only fall back to the heap for very
  // wide conjunctions.
  constexpr size_t kStackPreds = 8;
  internal::OffsetPredicate stack_preds[kStackPreds];
  std::vector<internal::OffsetPredicate> heap_preds;
  internal::OffsetPredicate* offset_preds = stack_preds;
  if (num_preds > kStackPreds) {
    heap_preds.resize(num_preds);
    offset_preds = heap_preds.data();
  }
  size_t kept = 0;
  for (size_t p = 0; p < num_preds; ++p) {
    switch (TranslatePredicate(preds[p], &offset_preds[kept])) {
      case Translation::kNone:
        return ScanResult{};
      case Translation::kArc:
        ++kept;
        break;
      case Translation::kAll:
        break;
    }
  }
  // A constant measure column has every offset 0: counting is enough.
  const bool constant_measure =
      !ProfileNeedsMeasures(profile) || measures.width == 0;
  const ScanProfile kernel_profile =
      constant_measure ? ScanProfile::kCount : profile;
  const internal::OffsetSums sums =
      backend == ScanBackend::kAvx2 && Avx2Available()
          ? internal::Avx2ScanOffsets(offset_preds, kept, measures.data,
                                      measures.width, num_rows,
                                      kernel_profile)
          : internal::ScalarScanOffsets(offset_preds, kept, measures.data,
                                        measures.width, num_rows,
                                        kernel_profile);
  return Reconstruct(sums, measures.reference, profile);
}

ScanResult ScanColumns(const ColumnPredicate* preds, size_t num_preds,
                       PackedColumn measures, size_t num_rows,
                       ScanProfile profile) {
  return ScanColumnsWithBackend(ActiveScanBackend(), preds, num_preds,
                                measures, num_rows, profile);
}

}  // namespace fedaqp
