#pragma once
/// \file reference_kernels.hpp
/// Retained reference implementations of the alignment kernels.
///
/// These are the original straightforward implementations of x-drop
/// extension and seed-anchored alignment, kept verbatim when the hot-path
/// kernels in xdrop.cpp / xdrop_i8.cpp were rebuilt around reusable
/// workspaces, plus the exact (banded) Smith-Waterman kernels. They are the
/// correctness oracles: the optimized x-drop kernels must produce
/// bitwise-identical scores, spans, and `cells` counters (see
/// tests/test_align_differential.cpp), x-drop never scores above exact
/// Smith-Waterman (tests/test_align.cpp), and the wall-clock benchmark
/// (bench/bench_kernel_wallclock.cpp) reports speedup relative to them.
///
/// Do not optimize these. Clarity over speed is the point.

#include <string_view>

#include "align/xdrop.hpp"

namespace dibella::align::ref {

/// Result of a Smith-Waterman local alignment.
struct LocalAlignment {
  int score = 0;
  /// Half-open aligned spans; all zero when the best local score is 0. The
  /// banded kernel (no traceback) leaves the begin positions at zero.
  u64 a_begin = 0, a_end = 0;
  u64 b_begin = 0, b_end = 0;
  u64 cells = 0;  ///< DP cells evaluated
};

/// Original x-drop extension: allocates three std::vector<int> per call and
/// re-assigns a fresh window per antidiagonal.
ExtendResult xdrop_extend(std::string_view a, std::string_view b,
                          const Scoring& scoring, int xdrop);

/// Original seed-anchored alignment: materializes reversed prefix copies of
/// both sequences for the left extension.
SeedAlignment align_from_seed(std::string_view a, std::string_view b, u64 pos_a,
                              u64 pos_b, int k, const Scoring& scoring, int xdrop);

/// Full Smith-Waterman with traceback (O(nm), the paper's §2 baseline
/// formulation); allocates the (n+1)x(m+1) direction matrix, so it is for
/// tests and short sequences.
LocalAlignment smith_waterman(std::string_view a, std::string_view b,
                              const Scoring& scoring);

/// Banded Smith-Waterman: only cells with |i - j| <= band are evaluated
/// (score and end positions only, no traceback). The "limited number of
/// mismatches" optimization of §2 that makes pairwise alignment linear in L.
/// Allocates two rows per call.
LocalAlignment banded_smith_waterman(std::string_view a, std::string_view b,
                                     const Scoring& scoring, i64 band);

}  // namespace dibella::align::ref
