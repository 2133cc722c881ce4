// The int32 AVX2 x-drop kernel: the antidiagonal DP of xdrop.cpp's scalar
// kernel, eight cells of an antidiagonal per 256-bit vector. See xdrop.hpp
// for when it runs; the invariants the unconditional loads rely on are
// spelled out below.

#include <algorithm>
#include <cstring>

#include "align/detail/xdrop_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dibella::align::detail {

void fill_oriented(std::string_view a, std::string_view b, bool reversed, i64 from,
                   i64 to, char* A, char* B) {
  const i64 n = static_cast<i64>(a.size()), m = static_cast<i64>(b.size());
  const i64 a_to = std::min(to, n), b_to = std::min(to, m);
  if (reversed) {
    for (i64 x = from; x < a_to; ++x) A[x] = a[static_cast<std::size_t>(n - 1 - x)];
    if (from < b_to) std::memcpy(B + (m - b_to), b.data() + (m - b_to), b_to - from);
  } else {
    if (from < a_to) std::memcpy(A + from, a.data() + from, a_to - from);
    for (i64 y = from; y < b_to; ++y) B[m - 1 - y] = b[static_cast<std::size_t>(y)];
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

constexpr int kNegInf = kXdropNegInf;
constexpr i64 kLanes = 8;
/// Elements (band buffers) or bytes (sequence buffers) of padding on each
/// side of the data.
constexpr i64 kPad = 8;

}  // namespace

/// Buffer layout and the invariants that make every load unconditional:
///   * Band buffer for antidiagonal d: cur[-kPad, 0) is kNegInf (written once
///     per call, never overwritten), cur[0, 8*nc) holds cells lo..lo+8*nc-1
///     (lanes past hi and pruned cells hold kNegInf), and cur[8*nc, 8*nc+8)
///     is a kNegInf vector stored after the last chunk.
///   * The window of antidiagonal d satisfies lo_{d-1} <= lo and
///     hi <= hi_{d-1} + 1 <= hi_{d-2} + 2, so the parents every lane of
///     every chunk reads (prev1 at i-1 and i, prev2 at i-1) fall inside
///     [-1, 8*nc + 8) of their buffers: real cells or kNegInf, exactly what
///     the scalar kernel's window checks produce.
///   * Cells with i = 0 or j = 0 read their missing parents from the padding
///     (kNegInf), so their substitution byte is never used; every real
///     substitution reads sequence bytes already copied (the copy frontier
///     stays ahead of d).
__attribute__((target("avx2"))) ExtendResult xdrop_extend_avx2(
    std::string_view a, std::string_view b, bool reversed, const Scoring& scoring,
    int xdrop, Workspace& ws) {
  const i64 n = static_cast<i64>(a.size());
  const i64 m = static_cast<i64>(b.size());
  ExtendResult out;  // the empty extension scores 0 at (0,0)
  if (n == 0 && m == 0) return out;
  xdrop = std::min(xdrop, kXdropMaxX);

  // An antidiagonal holds at most min(n, m) + 1 cells, i.e. nc_max chunks.
  const i64 nc_max = (std::min(n, m) + 1 + kLanes - 1) / kLanes;
  for (auto& v : ws.xband) {
    ensure_size(v, static_cast<std::size_t>(kLanes * nc_max + 2 * kPad));
  }
  ensure_size(ws.xseq[0], static_cast<std::size_t>(n + 2 * kPad));
  ensure_size(ws.xseq[1], static_cast<std::size_t>(m + 2 * kPad));
  char* A = ws.xseq[0].data() + kPad;
  char* B = ws.xseq[1].data() + kPad;
  i64 copied = 0;  // view indices [0, copied) of both walks are in A / B

  const __m256i neg = _mm256_set1_epi32(kNegInf);
  int* prev2 = ws.xband[0].data() + kPad;
  int* prev1 = ws.xband[1].data() + kPad;
  int* cur = ws.xband[2].data() + kPad;
  for (int* buf : {prev2, prev1, cur}) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(buf - kPad), neg);
  }
  // Entering the loop at d = 1, prev1 is the d = 0 row (single live cell
  // (0,0) = 0) and prev2 is empty; each is one chunk plus its trailing pad.
  for (int* buf : {prev2, prev1}) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(buf), neg);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(buf + kLanes), neg);
  }
  prev1[0] = 0;
  i64 p2_lo = 1, p2_hi = 0, p2_base = 0;  // empty window sentinel: lo > hi
  i64 p1_lo = 0, p1_hi = 0, p1_base = 0;

  int best = 0;
  i64 best_i = 0, best_j = 0;
  const __m256i match_v = _mm256_set1_epi32(scoring.match);
  const __m256i mismatch_v = _mm256_set1_epi32(scoring.mismatch);
  const __m256i gap_v = _mm256_set1_epi32(scoring.gap);
  const __m256i lane_idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i best_v = _mm256_set1_epi32(best);
  __m256i keep_above_v = _mm256_set1_epi32(best - xdrop - 1);  // keep s > this

  for (i64 d = 1; d <= n + m; ++d) {
    i64 lo = std::min(p1_lo, p2_lo + 1);
    i64 hi = std::max(p1_hi + 1, p2_hi + 1);
    lo = std::max(lo, std::max<i64>(0, d - m));
    hi = std::min(hi, std::min<i64>(n, d));
    if (lo > hi) break;
    if (d > copied) {  // real cells of antidiagonal d read view indices < d
      const i64 next = std::max(2 * copied, d + 256);
      fill_oriented(a, b, reversed, copied, next, A, B);
      copied = next;
    }

    // Lane k of chunk c is cell i = lo + 8c + k: diag parent prev2[i-1],
    // up parent prev1[i-1], left parent prev1[i]; characters a-walk[i-1]
    // and b-walk[d-i-1].
    const int* diag_p = prev2 + (lo - 1 - p2_base);
    const int* up_p = prev1 + (lo - 1 - p1_base);
    const char* a_p = A + (lo - 1);
    const char* b_p = B + (m - d + lo);
    const i64 width = hi - lo + 1;
    i64 live_lo = hi + 1, live_hi = lo - 1;
    i64 off = 0;
    for (; off < width; off += kLanes) {
      const __m256i diag = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(diag_p + off));
      const __m256i up = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(up_p + off));
      const __m256i left =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(up_p + off + 1));
      const __m128i eq8 =
          _mm_cmpeq_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(a_p + off)),
                         _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b_p + off)));
      const __m256i sub = _mm256_blendv_epi8(mismatch_v, match_v, _mm256_cvtepi8_epi32(eq8));
      __m256i s = _mm256_max_epi32(_mm256_add_epi32(diag, sub),
                                   _mm256_add_epi32(_mm256_max_epi32(up, left), gap_v));
      if (width - off < kLanes) {  // last chunk: lanes past hi are dead
        const __m256i in_band =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(width - off)), lane_idx);
        s = _mm256_blendv_epi8(neg, s, in_band);
      }
      int* dst = cur + off;
      const i64 i0 = lo + off;
      if (_mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(s, best_v))) == 0) {
        // No lane raises best, so the prune threshold is the same for all
        // eight: one compare prunes the chunk.
        const __m256i keep = _mm256_cmpgt_epi32(s, keep_above_v);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_blendv_epi8(neg, s, keep));
        const unsigned mask =
            static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(keep)));
        if (mask != 0) {
          if (live_lo > hi) live_lo = i0 + __builtin_ctz(mask);
          live_hi = i0 + 31 - __builtin_clz(mask);
        }
        continue;
      }
      // Some lane raises best: later lanes prune against the raised value,
      // so run the scalar step in lane order (lanes past hi are kNegInf and
      // fall through as dead).
      alignas(32) int lanes[kLanes];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), s);
      for (i64 k = 0; k < kLanes; ++k) {
        const int v = lanes[k];
        if (v > best) {
          best = v;
          best_i = i0 + k;
          best_j = d - best_i;
        }
        if (v >= best - xdrop) {  // x-drop prune
          dst[k] = v;
          if (live_lo > hi) live_lo = i0 + k;
          live_hi = i0 + k;
        } else {
          dst[k] = kNegInf;
        }
      }
      best_v = _mm256_set1_epi32(best);
      keep_above_v = _mm256_set1_epi32(best - xdrop - 1);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + off), neg);  // trailing pad
    out.cells += static_cast<u64>(width);
    if (live_lo > live_hi) break;  // antidiagonal fully dead: terminate
    int* recycled = prev2;
    prev2 = prev1;
    p2_lo = p1_lo;
    p2_hi = p1_hi;
    p2_base = p1_base;
    prev1 = cur;
    p1_lo = live_lo;
    p1_hi = live_hi;
    p1_base = lo;
    cur = recycled;
  }

  out.score = best;
  out.ext_a = static_cast<u64>(best_i);
  out.ext_b = static_cast<u64>(best_j);
  return out;
}

#else  // no x86: avx2_supported() is false, so this is never dispatched

ExtendResult xdrop_extend_avx2(std::string_view, std::string_view, bool, const Scoring&,
                               int, Workspace&) {
  DIBELLA_CHECK(false, "xdrop_extend_avx2: not an x86 build");
  return {};
}

#endif

}  // namespace dibella::align::detail
