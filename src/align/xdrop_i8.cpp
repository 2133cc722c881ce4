// The int8 x-drop kernel: the antidiagonal DP of xdrop.cpp's scalar kernel
// with a whole antidiagonal band in one 32 x int8 AVX2 register. See
// xdrop.hpp for when it runs and for the range argument behind
// xdrop_i8_fits(); the lane layout and its invariants are spelled out below.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "align/detail/xdrop_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dibella::align::detail {

namespace {

/// Lanes of one band register.
constexpr i64 kLanes = 32;
/// The score reference moves by this much once `best` is this far above it.
constexpr int kRebase = 64;
/// Dead-cell value: the int8 minimum, so saturating adds keep it dead.
constexpr int kDead = -128;

}  // namespace

bool xdrop_i8_fits(const Scoring& scoring, int xdrop) {
  const int rise = std::max({scoring.match, scoring.mismatch, scoring.gap, 0});
  const int fall = std::min({scoring.match, scoring.mismatch, scoring.gap});
  return xdrop >= 0 && rise <= 1 && xdrop <= 127 - rise && fall >= kDead;
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

/// Sequence-buffer padding bytes on each side: a band's 32-byte loads reach
/// up to 31 bytes past the end of a sequence copy and, while the base lags
/// the matrix edge j = m, a few bytes before the start of B.
constexpr i64 kPad = kLanes;

/// Copies view indices [from, to) of one extension frame into the oriented
/// sequence buffers: A[x] holds the x-th character of a's walk, and
/// B[m-1-y] the y-th character of b's walk, so that the two characters of
/// cell (i, d-i), a-walk[i-1] and b-walk[d-i-1], both sit at increasing
/// addresses as i grows. Only one side needs reversing: b on a forward walk,
/// a on a reversed one.
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

/// Lane k <- lane k - 1; the lowest lane becomes dead.
__attribute__((target("avx2"))) inline __m256i shift_up1(__m256i v, __m256i dead) {
  const __m256i low = _mm256_permute2x128_si256(v, dead, 0x02);  // [dead.lo, v.lo]
  return _mm256_alignr_epi8(v, low, 15);
}

/// Lane k <- lane k + 8; the highest 8 lanes become dead.
__attribute__((target("avx2"))) inline __m256i shift_down8(__m256i v, __m256i dead) {
  return _mm256_blend_epi32(_mm256_permute4x64_epi64(v, _MM_SHUFFLE(3, 3, 2, 1)), dead, 0xC0);
}

/// Window caps: a 32-byte load at kCap + 32 - k0 is 127 in lanes >= k0 and
/// dead below; one at kCap + 63 - k1 is 127 in lanes <= k1 and dead above.
alignas(32) constexpr std::array<std::int8_t, 3 * kLanes> kCap = [] {
  std::array<std::int8_t, 3 * kLanes> cap{};
  for (std::size_t i = 0; i < cap.size(); ++i) {
    cap[i] = static_cast<std::int8_t>(i >= kLanes && i < 2 * kLanes ? 127 : kDead);
  }
  return cap;
}();

__attribute__((target("avx2"))) inline __m256i load(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline unsigned movemask(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_epi8(v));
}

/// Broadcasts of the running best (stored value) and of the prune
/// thresholds that follow from it.
struct Thresholds {
  __m256i best;        ///< best
  __m256i keep_above;  ///< best - xdrop - 1: a cell is kept when it exceeds this
  __m256i at_old;      ///< best - xdrop: the lowest value a cell is kept at
};

__attribute__((target("avx2"))) inline Thresholds thresholds(int best, int xdrop) {
  return {_mm256_set1_epi8(static_cast<char>(best)),
          _mm256_set1_epi8(static_cast<char>(best - xdrop - 1)),
          _mm256_set1_epi8(static_cast<char>(best - xdrop))};
}

/// Register layout and the invariants the lane arithmetic relies on:
///   * v1 and v2 hold antidiagonals d-1 and d-2 against one lane base: lane
///     k is cell i = base + k of both. So cell i's parents are lane k-1 of
///     v2 (diag), lane k-1 of v1 (up) and lane k of v1 (left), i.e.
///     shift_up1(v2), shift_up1(v1) and v1, for every lane at once.
///     live1 / live2 are the bitmasks of their live lanes, so the window
///     [lo, hi] of antidiagonal d is the lowest and highest bit of
///     live1 | (live1 | live2) << 1, before the matrix edges clip it.
///   * Every lane outside a band's live cells is kDead, so a cell outside
///     that window has only dead parents: its score is at most kDead + 1
///     < best - xdrop, which prunes it to kDead. Only the matrix edges
///     (j <= m, i <= n) can clip a window while a parent beyond it is live;
///     those antidiagonals mask the lanes outside [lo, hi] explicitly.
///   * The base moves up 8 lanes when lanes 0..7 are dead in both bands. A
///     window that still reaches past lane 31 restarts the extension on the
///     scalar kernel.
///   * Scores are stored as score - ref, with 0 <= best - ref < kRebase at
///     the start of every antidiagonal (ref moves by kRebase), so a cell is
///     at most kRebase and a kept cell is at least -xdrop > kDead:
///     saturating adds never clip a value that matters.
///   * No step adds more than 1, so best rises by at most 1 per
///     antidiagonal: every parent of a cell is at most the best of earlier
///     antidiagonals.
__attribute__((target("avx2"))) ExtendResult extend_i8(std::string_view a,
                                                       std::string_view b, bool reversed,
                                                       const Scoring& scoring, int xdrop,
                                                       Workspace& ws) {
  const i64 n = static_cast<i64>(a.size());
  const i64 m = static_cast<i64>(b.size());
  ExtendResult out;  // the empty extension scores 0 at (0,0)
  if (n == 0 && m == 0) return out;

  ensure_size(ws.xseq[0], static_cast<std::size_t>(n + 2 * kPad));
  ensure_size(ws.xseq[1], static_cast<std::size_t>(m + 2 * kPad));
  char* A = ws.xseq[0].data() + kPad;
  char* B = ws.xseq[1].data() + kPad;

  const __m256i dead = _mm256_set1_epi8(static_cast<char>(kDead));
  const __m256i match_v = _mm256_set1_epi8(static_cast<char>(scoring.match));
  const __m256i mismatch_v = _mm256_set1_epi8(static_cast<char>(scoring.mismatch));
  const __m256i gap_v = _mm256_set1_epi8(static_cast<char>(scoring.gap));
  const __m256i rebase_v = _mm256_set1_epi8(static_cast<char>(kRebase));
  const __m256i one_v = _mm256_set1_epi8(1);
  const __m256i lane_idx =
      _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                       20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);

  // Entering the loop at d = 1, v1 is the d = 0 row (single live cell
  // (0,0) = 0) and v2 is empty.
  __m256i v2 = dead;
  __m256i v1 = _mm256_insert_epi8(dead, 0, 0);
  unsigned live2 = 0, live1 = 1;
  i64 base = 0;

  int ref = 0;   // stored value = score - ref
  int best = 0;  // best score - ref, first reached at cell (best_i, best_d - best_i)
  i64 best_i = 0, best_d = 0;
  Thresholds th = thresholds(best, xdrop);
  u64 cells = 0;

  // The sequence copies grow in segments; the inner loop makes no call, so
  // its state stays in registers.
  i64 d = 1;
  for (i64 copied = 0; d <= n + m;) {
    const i64 next = std::max(2 * copied, d + 256);
    fill_oriented(a, b, reversed, copied, next, A, B);
    copied = next;
    const i64 d_end = std::min(n + m, copied);  // real cells of d read view indices < d
    for (; d <= d_end; ++d) {
      while (((live1 | live2) & 0xFFu) == 0) {
        live1 >>= 8;
        live2 >>= 8;
        v1 = shift_down8(v1, dead);
        v2 = shift_down8(v2, dead);
        base += 8;
      }
      const u64 window = live1 | (u64{live1 | live2} << 1);
      if ((window >> kLanes) != 0) {  // the band outgrew the register
        ++ws.xdrop_restarts;
        return xdrop_extend_scalar(a, b, reversed, scoring, xdrop, ws);
      }
      // Lane k is cell i = base + k; its characters are a-walk[i-1] = A[i-1]
      // and b-walk[d-i-1] = B[m-d+i].
      const __m256i eq = _mm256_cmpeq_epi8(load(A + base - 1), load(B + (m - d + base)));
      const __m256i sub = _mm256_blendv_epi8(mismatch_v, match_v, eq);
      __m256i s = _mm256_max_epi8(
          _mm256_adds_epi8(shift_up1(v2, dead), sub),
          _mm256_adds_epi8(_mm256_max_epi8(shift_up1(v1, dead), v1), gap_v));

      i64 lo = __builtin_ctzll(window), hi = 63 - __builtin_clzll(window);  // lanes
      if (d - m - base > lo || n - base < hi) {  // a matrix edge clips the window
        lo = std::max(lo, d - m - base);
        hi = std::min(hi, n - base);
        if (lo > hi) break;
        s = _mm256_min_epi8(s, _mm256_min_epi8(load(kCap.data() + kLanes - lo),
                                               load(kCap.data() + 2 * kLanes - 1 - hi)));
      }
      cells += static_cast<u64>(hi - lo + 1);

      // Lanes that leave best where it was all prune against one threshold.
      const __m256i keep = _mm256_cmpgt_epi8(s, th.keep_above);
      __m256i v = _mm256_blendv_epi8(dead, s, keep);
      unsigned live = movemask(keep);
      const unsigned rise = movemask(_mm256_cmpgt_epi8(s, th.best));
      if (rise != 0) {
        // best rises by exactly 1, at the first raising lane k0: lanes after
        // it prune against a threshold one higher, so those exactly at the
        // old one die.
        const int k0 = __builtin_ctz(rise);
        const __m256i at_old = _mm256_cmpeq_epi8(s, th.at_old);
        const unsigned late_at_old = movemask(at_old) & (~1u << k0);
        if (late_at_old != 0) [[unlikely]] {
          const __m256i late =
              _mm256_cmpgt_epi8(lane_idx, _mm256_set1_epi8(static_cast<char>(k0)));
          v = _mm256_blendv_epi8(v, dead, _mm256_and_si256(at_old, late));
          live &= ~late_at_old;
        }
        ++best;
        best_i = base + k0;
        best_d = d;
        th = {_mm256_add_epi8(th.best, one_v), _mm256_add_epi8(th.keep_above, one_v),
              _mm256_add_epi8(th.at_old, one_v)};
      }
      if (live == 0) break;  // antidiagonal fully dead: terminate
      live2 = live1;
      live1 = live;
      v2 = v1;
      v1 = v;
      if (best >= kRebase) [[unlikely]] {
        best -= kRebase;
        ref += kRebase;
        v1 = _mm256_subs_epi8(v1, rebase_v);
        v2 = _mm256_subs_epi8(v2, rebase_v);
        th = thresholds(best, xdrop);
      }
    }
    if (d <= d_end) break;  // the extension ended inside this segment
  }

  out.score = ref + best;
  out.ext_a = static_cast<u64>(best_i);
  out.ext_b = static_cast<u64>(best_d - best_i);
  out.cells = cells;
  return out;
}

}  // namespace

ExtendResult xdrop_extend_i8(std::string_view a, std::string_view b, bool reversed,
                             const Scoring& scoring, int xdrop, Workspace& ws) {
  if (!xdrop_i8_fits(scoring, xdrop)) {
    return xdrop_extend_scalar(a, b, reversed, scoring, xdrop, ws);
  }
  return extend_i8(a, b, reversed, scoring, xdrop, ws);
}

#else  // no x86: avx2_supported() is false, so this is never dispatched

ExtendResult xdrop_extend_i8(std::string_view, std::string_view, bool, const Scoring&, int,
                             Workspace&) {
  DIBELLA_CHECK(false, "xdrop_extend_i8: not an x86 build");
  return {};
}

#endif

}  // namespace dibella::align::detail
