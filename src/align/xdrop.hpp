#pragma once
/// \file xdrop.hpp
/// X-drop seed extension (Zhang, Schwartz, Wagner, Miller 2000) — the
/// pairwise kernel of the alignment stage (§2, §9).
///
/// From a shared seed, the alignment is extended independently to the left
/// and right by a banded antidiagonal dynamic program that abandons any cell
/// whose score falls more than X below the best score seen so far. On
/// divergent sequences the live band dies quickly ("the x-drop algorithm
/// returns much faster when the two sequences are divergent", §9 — the
/// source of alignment-stage load imbalance), on homologous sequences the
/// cost is near-linear in the overlap length.
///
/// Two kernels implement this API, each bitwise-identical (scores, spans,
/// `cells`) to the retained straightforward implementation in align::ref
/// (reference_kernels.hpp); tests/test_align_differential.cpp holds each one
/// against it (align/detail/xdrop_kernels.hpp declares both):
///   * int8 (xdrop_i8.cpp), the kernel AVX2 hosts dispatch to: a whole
///     antidiagonal band in one 32 x int8 register. The bands of
///     antidiagonals d-1 and d-2 share one lane base, so a cell's three
///     parents are two one-lane shifts and one register, and the base moves
///     up 8 lanes once those lanes are dead in both. Scores are stored
///     relative to a reference that moves by 64 once `best` is 64 above it,
///     so the prune threshold is one broadcast. When `best` rises, the first
///     raising lane comes from one ctz.
///   * Scalar (xdrop.cpp): one cell at a time; runs on hosts without AVX2,
///     and runs what the int8 kernel cannot: a call whose X or scoring does
///     not fit int8 (below), and, from the start again, an extension whose
///     band outgrows 32 lanes (the `align:extend` span's `restarts` arg
///     counts those).
/// The kernel is chosen once per process from the CPU's features
/// (`__builtin_cpu_supports("avx2")`); there is no flag to override it.
///
/// Why int8 holds every score that matters. Let rise = max(match, mismatch,
/// gap, 0), the most one step can add; the int8 kernel takes rise <= 1, so
/// `best` rises by at most 1 per antidiagonal. A kept cell scores in
/// [best - X, best], and a new cell at most best + rise. With best - ref in
/// [0, 64) when an antidiagonal starts, a stored value is at most 64, and a
/// kept one at least -X. A dead cell is -128, and saturating adds keep it
/// at or below -128 + rise, which must prune: -128 + rise < -X, i.e.
/// X <= 127 - rise. And each of match, mismatch and gap must itself fit a
/// lane (>= -128). The test is detail::xdrop_i8_fits(scoring, X); at the
/// default +1/-2/-2 it admits X <= 126.
///
/// The kernels are allocation-free: band and sequence buffers come from a
/// caller-provided align::Workspace, and window trimming is bookkeeping (no
/// copies).
///
/// The paper calls SeqAn's implementation; this is a from-scratch equivalent
/// property-tested against the exact Smith-Waterman oracle
/// align::ref::smith_waterman (reference_kernels.hpp; see tests/test_align.cpp).

#include <string_view>

#include "align/scoring.hpp"
#include "align/workspace.hpp"
#include "util/common.hpp"

namespace dibella::align {

/// Result of extending an alignment from position (0,0) into prefixes of
/// two sequences.
struct ExtendResult {
  int score = 0;    ///< best extension score found (>= 0; empty extension = 0)
  u64 ext_a = 0;    ///< bases of `a` consumed by the best extension
  u64 ext_b = 0;    ///< bases of `b` consumed by the best extension
  u64 cells = 0;    ///< DP cells evaluated (work metric for load-imbalance study)
};

/// Extend an alignment of a[0..) vs b[0..) forward from their starts,
/// returning the best-scoring pair of prefixes under `scoring`, abandoning
/// paths that drop more than `xdrop` below the running best. To extend
/// leftward, pass reversed sequences (or use align_from_seed, which walks
/// the reversed prefixes copy-free). `xdrop` is treated as capped at 10^8;
/// larger values behave identically for any sequences shorter than ~25 Mbp.
ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop, Workspace& ws);

/// Convenience overload with a throwaway workspace (tests, one-off calls).
ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop);

/// Cells per instruction of the kernel that runs calls under `scoring` and
/// `xdrop`: 32 when the int8 AVX2 kernel is dispatched and takes them
/// (detail::xdrop_i8_fits), else 1 (the scalar kernel). Recorded on the
/// `align:extend` span.
int xdrop_kernel_lanes(const Scoring& scoring, int xdrop);

/// One seed-anchored pairwise alignment: seed of length k at a[pos_a..],
/// b[pos_b..] (sequences already in the same orientation). Extends left and
/// right with x-drop.
struct SeedAlignment {
  int score = 0;       ///< total score including the seed match
  u64 a_begin = 0, a_end = 0;  ///< half-open aligned span in `a`
  u64 b_begin = 0, b_end = 0;  ///< half-open aligned span in `b`
  u64 cells = 0;       ///< DP work
};

SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop,
                              Workspace& ws);

/// Convenience overload with a throwaway workspace (tests, one-off calls).
SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop);

}  // namespace dibella::align
