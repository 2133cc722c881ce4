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
///   * AVX2 (xdrop_avx2.cpp): eight cells of an antidiagonal per vector.
///     Band buffers carry dead-cell padding, so every lane loads its three
///     parents unconditionally; both sequences are copied into padded
///     workspace buffers oriented so one 8-byte load per sequence feeds a
///     chunk's substitutions. A chunk whose cells cannot raise the best
///     score is pruned with one vector compare; a chunk that can goes
///     through the scalar best/prune step lane by lane, which keeps the
///     in-order semantics exact.
///   * Scalar (xdrop.cpp): one cell at a time; runs on hosts without AVX2.
/// The kernel is chosen once per process from the CPU's features
/// (`__builtin_cpu_supports("avx2")`); there is no flag to override it.
///
/// Both kernels are allocation-free: band and sequence buffers come from a
/// caller-provided align::Workspace, and window trimming is bookkeeping (no
/// copies).
///
/// The paper calls SeqAn's implementation; this is a from-scratch equivalent
/// property-tested against our exact Smith-Waterman (see tests/test_align.cpp).

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

/// Cells the dispatched kernel computes per instruction: 8 for AVX2, 1 for
/// the scalar kernel. Recorded on the `align:extend` span.
int xdrop_kernel_lanes();

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
