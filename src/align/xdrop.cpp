#include "align/xdrop.hpp"

#include <algorithm>
#include <limits>

#include "align/detail/xdrop_kernels.hpp"

namespace dibella::align {

namespace detail {

namespace {

/// Dead-cell sentinel: far enough below any live score that adding a
/// substitution or gap to it never wins a max, never beats `best`, and
/// always fails the prune, and far enough above INT_MIN that it never
/// overflows.
constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

/// Character access for one extension frame: forward (a suffix walked left
/// to right) or reversed (a prefix walked right to left) — the reversed view
/// is what lets the left extension run without materializing reversed
/// copies of both prefixes.
template <bool kReversed>
struct SeqView {
  const char* base = nullptr;
  i64 len = 0;
  char operator[](i64 idx) const {
    return kReversed ? base[len - 1 - idx] : base[idx];
  }
};

/// The scalar kernel (dispatched on hosts without AVX2): the antidiagonal
/// x-drop DP of ref::xdrop_extend, restructured to be allocation-free:
///   * the three band buffers (antidiagonals d-2, d-1, d) live in the
///     workspace and rotate by pointer swap;
///   * "trimming" a window to its live cells adjusts [lo, hi] bookkeeping
///     instead of copying the band;
///   * the per-cell bounds-checking lambda is replaced by overlap ranges
///     [*_lo, *_hi] precomputed once per antidiagonal for each parent.
/// Scores, spans, and the `cells` counter are bitwise-identical to the
/// reference kernel (enforced by tests/test_align_differential.cpp).
template <bool kReversed>
ExtendResult xdrop_extend_impl(SeqView<kReversed> a, SeqView<kReversed> b,
                               const Scoring& scoring, int xdrop, Workspace& ws) {
  const i64 n = a.len;
  const i64 m = b.len;
  ExtendResult out;  // the empty extension scores 0 at (0,0)
  if (n == 0 && m == 0) return out;
  xdrop = std::min(xdrop, kXdropMaxX);

  // An antidiagonal of the [0,n] x [0,m] rectangle holds at most
  // min(n, m) + 1 cells, so one sizing check up front covers the whole run.
  const std::size_t band_cap = static_cast<std::size_t>(std::min(n, m) + 1);
  for (auto& v : ws.xband) ensure_size(v, band_cap);
  int* prev2 = ws.xband[0].data();
  int* prev1 = ws.xband[1].data();
  int* cur = ws.xband[2].data();

  // Window [lo, hi] of live i-indices per buffer; `base` is the i-index of
  // element 0 (trimming moves lo/hi but not base). Entering the loop at
  // d = 1, prev1 is the d = 0 row (single live cell (0,0) = 0), prev2 empty.
  i64 p2_lo = 1, p2_hi = 0, p2_base = 0;  // empty window sentinel: lo > hi
  i64 p1_lo = 0, p1_hi = 0, p1_base = 0;
  prev1[0] = 0;

  int best = 0;
  i64 best_i = 0, best_j = 0;
  const int gap = scoring.gap;

  for (i64 d = 1; d <= n + m; ++d) {
    // Parents reach i from: up (i-1 in prev1), left (i in prev1),
    // diag (i-1 in prev2).
    i64 lo = std::min(p1_lo, p2_lo + 1);
    i64 hi = std::max(p1_hi + 1, p2_hi + 1);
    lo = std::max(lo, std::max<i64>(0, d - m));
    hi = std::min(hi, std::min<i64>(n, d));
    if (lo > hi) break;
    // Parent overlap ranges within [lo, hi]; outside them the parent is out
    // of window. (Window bounds are >= 0, so p*_lo + 1 >= 1 already encodes
    // the i >= 1 requirement; j >= 1 means i <= d - 1.)
    const i64 diag_lo = std::max(lo, p2_lo + 1);
    const i64 diag_hi = std::min({hi, p2_hi + 1, d - 1});
    const i64 up_lo = std::max(lo, p1_lo + 1);
    const i64 up_hi = std::min(hi, p1_hi + 1);
    const i64 left_lo = std::max(lo, p1_lo);
    const i64 left_hi = std::min({hi, p1_hi, d - 1});

    i64 live_lo = hi + 1, live_hi = lo - 1;
    // The prune/best/live bookkeeping shared by both cell paths below. A
    // dead parent holds kNegInf; adding a substitution/gap to it keeps s
    // hundreds of millions below any live score, so it never wins a max,
    // never beats `best`, and always fails the prune — exactly the
    // skip-dead-parent behavior of the reference kernel.
    auto finish_cell = [&](i64 i, int s) {
      if (s > best) {
        best = s;
        best_i = i;
        best_j = d - i;
      }
      if (s >= best - xdrop) {  // x-drop prune
        cur[i - lo] = s;
        if (live_lo > hi) live_lo = i;
        live_hi = i;
      } else {
        cur[i - lo] = kNegInf;
      }
    };
    // Cell with per-parent window checks (window edges only).
    auto checked_cell = [&](i64 i) {
      int s = kNegInf;
      if (i >= diag_lo && i <= diag_hi) {
        s = prev2[i - 1 - p2_base] + scoring.substitution(a[i - 1], b[d - i - 1]);
      }
      if (i >= up_lo && i <= up_hi) {
        s = std::max(s, prev1[i - 1 - p1_base] + gap);
      }
      if (i >= left_lo && i <= left_hi) {
        s = std::max(s, prev1[i - p1_base] + gap);
      }
      finish_cell(i, s);
    };
    // Split [lo, hi] into checked edges around the interior where all three
    // parents are in-window, so the bulk of the band runs branch-free.
    const i64 all_lo = std::max({diag_lo, up_lo, left_lo});
    const i64 all_hi = std::min({diag_hi, up_hi, left_hi});
    i64 interior_begin = hi + 1, interior_end = hi + 1;  // empty by default
    if (all_lo <= all_hi) {
      interior_begin = all_lo;      // >= lo: every *_lo is clamped to lo
      interior_end = all_hi + 1;    // <= hi + 1
    }
    const int match = scoring.match, mismatch = scoring.mismatch;
    for (i64 i = lo; i < interior_begin; ++i) checked_cell(i);
    for (i64 i = interior_begin; i < interior_end; ++i) {
      int s = prev2[i - 1 - p2_base] + (a[i - 1] == b[d - i - 1] ? match : mismatch);
      s = std::max(s, prev1[i - 1 - p1_base] + gap);
      s = std::max(s, prev1[i - p1_base] + gap);
      finish_cell(i, s);
    }
    for (i64 i = std::max(interior_end, lo); i <= hi; ++i) checked_cell(i);
    out.cells += static_cast<u64>(hi - lo + 1);
    if (live_lo > live_hi) break;  // antidiagonal fully dead: terminate
    // Rotate: cur becomes prev1 with its window trimmed to the live cells
    // (bookkeeping only), prev1 becomes prev2, old prev2 is recycled.
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

}  // namespace

ExtendResult xdrop_extend_scalar(std::string_view a, std::string_view b, bool reversed,
                                 const Scoring& scoring, int xdrop, Workspace& ws) {
  const i64 n = static_cast<i64>(a.size()), m = static_cast<i64>(b.size());
  if (reversed) {
    return xdrop_extend_impl(SeqView<true>{a.data(), n}, SeqView<true>{b.data(), m},
                             scoring, xdrop, ws);
  }
  return xdrop_extend_impl(SeqView<false>{a.data(), n}, SeqView<false>{b.data(), m},
                           scoring, xdrop, ws);
}

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SeedAlignment align_from_seed_with(XdropKernel kernel, std::string_view a,
                                   std::string_view b, u64 pos_a, u64 pos_b, int k,
                                   const Scoring& scoring, int xdrop, Workspace& ws) {
  DIBELLA_CHECK(pos_a + static_cast<u64>(k) <= a.size() &&
                    pos_b + static_cast<u64>(k) <= b.size(),
                "align_from_seed: seed outside sequence bounds");
  SeedAlignment out;

  // Left extension: the prefixes ending at the seed start, walked right to
  // left — no reversed heap copies.
  ExtendResult left =
      kernel(a.substr(0, pos_a), b.substr(0, pos_b), /*reversed=*/true, scoring, xdrop, ws);

  // Right extension: suffixes after the seed.
  const u64 a_tail = pos_a + static_cast<u64>(k);
  const u64 b_tail = pos_b + static_cast<u64>(k);
  ExtendResult right = kernel(a.substr(a_tail), b.substr(b_tail), /*reversed=*/false,
                              scoring, xdrop, ws);

  out.score = k * scoring.match + left.score + right.score;
  out.a_begin = pos_a - left.ext_a;
  out.b_begin = pos_b - left.ext_b;
  out.a_end = a_tail + right.ext_a;
  out.b_end = b_tail + right.ext_b;
  out.cells = left.cells + right.cells;
  return out;
}

}  // namespace detail

namespace {

/// The kernel this process runs, chosen on first use from the CPU's
/// features.
detail::XdropKernel dispatched_kernel() {
  static const detail::XdropKernel kernel = detail::avx2_supported()
                                                ? detail::xdrop_extend_i8
                                                : detail::xdrop_extend_scalar;
  return kernel;
}

}  // namespace

int xdrop_kernel_lanes(const Scoring& scoring, int xdrop) {
  return dispatched_kernel() == detail::xdrop_extend_i8 && detail::xdrop_i8_fits(scoring, xdrop)
             ? 32
             : 1;
}

ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop, Workspace& ws) {
  return dispatched_kernel()(a, b, /*reversed=*/false, scoring, xdrop, ws);
}

ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop) {
  Workspace ws;
  return xdrop_extend(a, b, scoring, xdrop, ws);
}

SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop,
                              Workspace& ws) {
  return detail::align_from_seed_with(dispatched_kernel(), a, b, pos_a, pos_b, k, scoring,
                                      xdrop, ws);
}

SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop) {
  Workspace ws;
  return align_from_seed(a, b, pos_a, pos_b, k, scoring, xdrop, ws);
}

}  // namespace dibella::align
