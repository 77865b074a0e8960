// AVX2 scan kernels. This translation unit is compiled with -mavx2 when
// the toolchain supports it (see CMakeLists.txt); otherwise it degrades to
// a stub that reports the AVX2 kernels absent and forwards to the scalar
// ones, so the library builds unchanged on any target.
//
// The kernel scans packed frame-of-reference columns at their own width,
// 32 rows per block: a 1-byte column tests the whole block with one
// vector compare, a 2-byte column with two, a 4-byte with four, an 8-byte
// with eight. Each predicate yields a 32-bit match mask, the masks AND,
// COUNT is a popcount, and SUM / SUMSQ add the surviving measure offsets
// widened to 64-bit lanes. A partial last block is staged through a
// zeroed stack buffer, so no load ever reads past a column's last byte.
//
// Bit-identity contract: a predicate is the unsigned test
// (o - start) mod 2^(8 * width) <= span in both backends, and the
// accumulators wrap modulo 2^64 exactly like the scalar kernel's uint64
// sums, so the AVX2 result equals the scalar result bit-for-bit on every
// input, not just within rounding.

#include "storage/scan_kernel.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>
#include <vector>

namespace fedaqp {
namespace internal {
namespace {

constexpr size_t kBlockRows = 32;

inline __m256i Load(const uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Low 64 bits of the lane-wise 64x64 product (AVX2 has no mullo_epi64;
/// this is the classic cross-product assembly from 32-bit partials — the
/// wrapping low half is exact, matching scalar uint64 multiplication).
inline __m256i Mul64Lo(__m256i a, __m256i b) {
  __m256i bswap = _mm256_shuffle_epi32(b, 0xB1);    // swap 32-bit halves
  __m256i prodlh = _mm256_mullo_epi32(a, bswap);    // lo*hi cross products
  __m256i zero = _mm256_setzero_si256();
  __m256i prodlh2 = _mm256_hadd_epi32(prodlh, zero);  // sum the cross pairs
  __m256i prodlh3 = _mm256_shuffle_epi32(prodlh2, 0x73);  // into high dwords
  __m256i prodll = _mm256_mul_epu32(a, b);          // lo*lo full 64-bit
  return _mm256_add_epi64(prodll, prodlh3);
}

/// A translated predicate with its bounds broadcast once per scan.
struct VecPredicate {
  const uint8_t* data;
  uint8_t width;
  __m256i start;
  __m256i span;
};

VecPredicate Broadcast(const OffsetPredicate& p) {
  VecPredicate v;
  v.data = p.data;
  v.width = p.width;
  switch (p.width) {
    case 1:
      v.start = _mm256_set1_epi8(static_cast<char>(p.start));
      v.span = _mm256_set1_epi8(static_cast<char>(p.span));
      break;
    case 2:
      v.start = _mm256_set1_epi16(static_cast<short>(p.start));
      v.span = _mm256_set1_epi16(static_cast<short>(p.span));
      break;
    case 4:
      v.start = _mm256_set1_epi32(static_cast<int>(p.start));
      v.span = _mm256_set1_epi32(static_cast<int>(p.span));
      break;
    default: {
      // Unsigned 64-bit compare = signed compare with both sides' sign
      // bits flipped; the span is flipped here, the offsets per block.
      const int64_t sign = INT64_MIN;
      v.start = _mm256_set1_epi64x(static_cast<int64_t>(p.start));
      v.span = _mm256_set1_epi64x(static_cast<int64_t>(p.span) ^ sign);
      break;
    }
  }
  return v;
}

/// The 32-row match mask of `pred` over the block at `p` (bit j = row j).
/// Narrow widths test t <= span as min(t, span) == t on unsigned lanes.
inline uint32_t BlockMask(const VecPredicate& pred, const uint8_t* p) {
  switch (pred.width) {
    case 1: {
      const __m256i t = _mm256_sub_epi8(Load(p), pred.start);
      const __m256i ok = _mm256_cmpeq_epi8(_mm256_min_epu8(t, pred.span), t);
      return static_cast<uint32_t>(_mm256_movemask_epi8(ok));
    }
    case 2: {
      const __m256i t0 = _mm256_sub_epi16(Load(p), pred.start);
      const __m256i t1 = _mm256_sub_epi16(Load(p + 32), pred.start);
      const __m256i ok0 =
          _mm256_cmpeq_epi16(_mm256_min_epu16(t0, pred.span), t0);
      const __m256i ok1 =
          _mm256_cmpeq_epi16(_mm256_min_epu16(t1, pred.span), t1);
      // packs interleaves 128-bit lanes; the permute restores row order.
      const __m256i packed = _mm256_permute4x64_epi64(
          _mm256_packs_epi16(ok0, ok1), 0xD8);
      return static_cast<uint32_t>(_mm256_movemask_epi8(packed));
    }
    case 4: {
      uint32_t mask = 0;
      for (int k = 0; k < 4; ++k) {
        const __m256i t = _mm256_sub_epi32(Load(p + 32 * k), pred.start);
        const __m256i ok =
            _mm256_cmpeq_epi32(_mm256_min_epu32(t, pred.span), t);
        mask |= static_cast<uint32_t>(
                    _mm256_movemask_ps(_mm256_castsi256_ps(ok)))
                << (8 * k);
      }
      return mask;
    }
    default: {
      const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
      uint32_t out_of_range = 0;
      for (int k = 0; k < 8; ++k) {
        const __m256i t = _mm256_xor_si256(
            _mm256_sub_epi64(Load(p + 32 * k), pred.start), sign);
        const __m256i gt = _mm256_cmpgt_epi64(t, pred.span);
        out_of_range |= static_cast<uint32_t>(
                            _mm256_movemask_pd(_mm256_castsi256_pd(gt)))
                        << (4 * k);
      }
      return ~out_of_range;
    }
  }
}

/// Lane masks for `bits` (the low 8) expanded to eight 32-bit lanes.
inline __m256i ExpandMask8x32(uint32_t bits) {
  const __m256i lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  return _mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), lane_bits),
      lane_bits);
}

/// Running 64-bit lane sums of measure offsets (and their squares).
struct Accumulators {
  __m256i sum = _mm256_setzero_si256();
  __m256i sum_squares = _mm256_setzero_si256();
};

/// Adds eight 32-bit lanes into the four 64-bit accumulator lanes
/// (even lanes, then odd lanes shifted down).
inline __m256i AddU32Lanes(__m256i acc, __m256i x) {
  const __m256i low = _mm256_set1_epi64x(0xFFFFFFFF);
  acc = _mm256_add_epi64(acc, _mm256_and_si256(x, low));
  return _mm256_add_epi64(acc, _mm256_srli_epi64(x, 32));
}

/// Adds the squares of eight 32-bit lanes (each < 2^32, so every square
/// is exact in 64 bits) into the four 64-bit accumulator lanes.
inline __m256i AddU32Squares(__m256i acc, __m256i x) {
  const __m256i odd = _mm256_srli_epi64(x, 32);
  acc = _mm256_add_epi64(acc, _mm256_mul_epu32(x, x));
  return _mm256_add_epi64(acc, _mm256_mul_epu32(odd, odd));
}

/// Masked widening add of one block's measure offsets at width M.
template <int M, bool kSquares>
inline void AccumulateBlock(uint32_t mask, const uint8_t* p,
                            Accumulators* acc) {
  if (M == 1) {
    // Byte lane j keeps its offset iff mask bit j is set: broadcast the
    // mask, route byte j / 8 of it to lane j, test bit j % 8.
    const __m256i routed = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(mask)),
        _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2,
                         2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3));
    const __m256i bit = _mm256_set1_epi64x(
        static_cast<int64_t>(0x8040201008040201ull));
    const __m256i keep =
        _mm256_cmpeq_epi8(_mm256_and_si256(routed, bit), bit);
    const __m256i x = _mm256_and_si256(Load(p), keep);
    const __m256i zero = _mm256_setzero_si256();
    acc->sum = _mm256_add_epi64(acc->sum, _mm256_sad_epu8(x, zero));
    if (kSquares) {
      // Offsets < 2^8: madd pairs of squares into 32-bit lanes (< 2^17),
      // add the two halves (< 2^18), then widen.
      const __m256i lo = _mm256_unpacklo_epi8(x, zero);
      const __m256i hi = _mm256_unpackhi_epi8(x, zero);
      const __m256i sq = _mm256_add_epi32(_mm256_madd_epi16(lo, lo),
                                          _mm256_madd_epi16(hi, hi));
      acc->sum_squares = AddU32Lanes(acc->sum_squares, sq);
    }
  } else if (M == 2) {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i lane_bits = _mm256_setr_epi16(
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
        static_cast<short>(0x8000));
    for (int k = 0; k < 2; ++k) {
      const uint32_t bits = (mask >> (16 * k)) & 0xFFFF;
      if (bits == 0) continue;
      const __m256i keep = _mm256_cmpeq_epi16(
          _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(bits)),
                           lane_bits),
          lane_bits);
      const __m256i x = _mm256_and_si256(Load(p + 32 * k), keep);
      const __m256i lo = _mm256_unpacklo_epi16(x, zero);
      const __m256i hi = _mm256_unpackhi_epi16(x, zero);
      // Two offsets < 2^16 sum below 2^17: one 32-bit add, then widen.
      acc->sum = AddU32Lanes(acc->sum, _mm256_add_epi32(lo, hi));
      if (kSquares) {
        acc->sum_squares = AddU32Squares(acc->sum_squares, lo);
        acc->sum_squares = AddU32Squares(acc->sum_squares, hi);
      }
    }
  } else if (M == 4) {
    for (int k = 0; k < 4; ++k) {
      const uint32_t bits = (mask >> (8 * k)) & 0xFF;
      if (bits == 0) continue;
      const __m256i x =
          _mm256_and_si256(Load(p + 32 * k), ExpandMask8x32(bits));
      acc->sum = AddU32Lanes(acc->sum, x);
      if (kSquares) acc->sum_squares = AddU32Squares(acc->sum_squares, x);
    }
  } else {
    const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
    for (int k = 0; k < 8; ++k) {
      const uint32_t bits = (mask >> (4 * k)) & 0xF;
      if (bits == 0) continue;
      const __m256i keep = _mm256_cmpeq_epi64(
          _mm256_and_si256(_mm256_set1_epi64x(bits), lane_bits), lane_bits);
      const __m256i x = _mm256_and_si256(Load(p + 32 * k), keep);
      acc->sum = _mm256_add_epi64(acc->sum, x);
      if (kSquares) {
        acc->sum_squares = _mm256_add_epi64(acc->sum_squares, Mul64Lo(x, x));
      }
    }
  }
}

/// Lanes summed in fixed order 0..3 (wrapping uint64 adds).
inline uint64_t ReduceLanes(__m256i v) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// The kernel, specialized per profile (kCount or kSum or kAll — the
/// dispatcher folds kSumSquares into kAll) and measure width M.
template <ScanProfile P, int M>
OffsetSums Avx2ScanImpl(const VecPredicate* preds, size_t num_preds,
                        const uint8_t* measures, size_t num_rows) {
  constexpr bool kSums = P != ScanProfile::kCount;
  constexpr bool kSquares = P == ScanProfile::kAll;
  OffsetSums out;
  Accumulators acc;
  const size_t full_rows = num_rows - num_rows % kBlockRows;
  for (size_t row = 0; row < full_rows; row += kBlockRows) {
    uint32_t mask = ~uint32_t{0};
    for (size_t p = 0; p < num_preds; ++p) {
      mask &= BlockMask(preds[p], preds[p].data + row * preds[p].width);
      // Early out for the block: wide analytic predicates are usually
      // decided by their first column.
      if (mask == 0) break;
    }
    out.count += static_cast<uint64_t>(__builtin_popcount(mask));
    if (kSums && mask != 0) {
      AccumulateBlock<M, kSquares>(mask, measures + row * M, &acc);
    }
  }

  const size_t tail = num_rows - full_rows;
  if (tail != 0) {
    // Stage each column's tail through a zeroed block buffer (32 rows of
    // the widest width), and mask the padding rows off.
    alignas(32) uint8_t staged[kBlockRows * 8];
    uint32_t mask = (uint32_t{1} << tail) - 1;
    for (size_t p = 0; p < num_preds && mask != 0; ++p) {
      std::memset(staged, 0, sizeof(staged));
      std::memcpy(staged, preds[p].data + full_rows * preds[p].width,
                  tail * preds[p].width);
      mask &= BlockMask(preds[p], staged);
    }
    out.count += static_cast<uint64_t>(__builtin_popcount(mask));
    if (kSums && mask != 0) {
      std::memset(staged, 0, sizeof(staged));
      std::memcpy(staged, measures + full_rows * M, tail * M);
      AccumulateBlock<M, kSquares>(mask, staged, &acc);
    }
  }

  if (kSums) {
    out.sum = ReduceLanes(acc.sum);
    if (kSquares) out.sum_squares = ReduceLanes(acc.sum_squares);
  }
  return out;
}

template <ScanProfile P>
OffsetSums Avx2ScanProfile(const VecPredicate* preds, size_t num_preds,
                           const uint8_t* measures, uint8_t measure_width,
                           size_t num_rows) {
  switch (measure_width) {
    case 1:
      return Avx2ScanImpl<P, 1>(preds, num_preds, measures, num_rows);
    case 2:
      return Avx2ScanImpl<P, 2>(preds, num_preds, measures, num_rows);
    case 4:
      return Avx2ScanImpl<P, 4>(preds, num_preds, measures, num_rows);
    default:
      return Avx2ScanImpl<P, 8>(preds, num_preds, measures, num_rows);
  }
}

}  // namespace

bool Avx2KernelsCompiledIn() { return true; }

OffsetSums Avx2ScanOffsets(const OffsetPredicate* preds, size_t num_preds,
                           const uint8_t* measures, uint8_t measure_width,
                           size_t num_rows, ScanProfile profile) {
  constexpr size_t kStackPreds = 8;
  VecPredicate stack_preds[kStackPreds];
  std::vector<VecPredicate> heap_preds;
  VecPredicate* vec_preds = stack_preds;
  if (num_preds > kStackPreds) {
    heap_preds.resize(num_preds);
    vec_preds = heap_preds.data();
  }
  for (size_t p = 0; p < num_preds; ++p) vec_preds[p] = Broadcast(preds[p]);

  switch (profile) {
    case ScanProfile::kCount:
      return Avx2ScanImpl<ScanProfile::kCount, 1>(vec_preds, num_preds,
                                                  nullptr, num_rows);
    case ScanProfile::kSum:
      return Avx2ScanProfile<ScanProfile::kSum>(vec_preds, num_preds,
                                                measures, measure_width,
                                                num_rows);
    case ScanProfile::kSumSquares:
    case ScanProfile::kAll:
      break;
  }
  // kSumSquares needs sum(o) as well to rebuild around the reference.
  return Avx2ScanProfile<ScanProfile::kAll>(vec_preds, num_preds, measures,
                                            measure_width, num_rows);
}

}  // namespace internal
}  // namespace fedaqp

#else  // !defined(__AVX2__)

namespace fedaqp {
namespace internal {

bool Avx2KernelsCompiledIn() { return false; }

OffsetSums Avx2ScanOffsets(const OffsetPredicate* preds, size_t num_preds,
                           const uint8_t* measures, uint8_t measure_width,
                           size_t num_rows, ScanProfile profile) {
  return ScalarScanOffsets(preds, num_preds, measures, measure_width,
                           num_rows, profile);
}

}  // namespace internal
}  // namespace fedaqp

#endif  // defined(__AVX2__)
