#pragma once
/// \file workspace.hpp
/// Reusable scratch arena for the alignment kernels.
///
/// The alignment stage is the pipeline's hottest loop (§9: the largest and
/// most load-imbalanced stage). Each stage-4 worker constructs one Workspace
/// and threads it through run_alignment_stage -> align_from_seed -> xdrop_extend /
/// smith_waterman / banded_smith_waterman; every kernel invocation then
/// borrows buffers from the arena instead of allocating. Buffers only ever
/// grow, so after a warm-up pass over the largest task the steady-state
/// alignment loop performs zero heap allocations per seed
/// (tests/test_align_differential.cpp pins this down with a counting
/// operator new).
///
/// A Workspace is cheap to default-construct; the no-workspace kernel
/// overloads create a throwaway one, so casual callers keep the old API.
/// Not thread-safe: one Workspace per thread.

#include <string>
#include <vector>

#include "util/common.hpp"

namespace dibella::align {

struct Workspace {
  /// X-drop antidiagonal bands: three rotating buffers (d-2, d-1, d). The
  /// kernel trims windows by bookkeeping only, so rotation is pointer swaps.
  std::vector<int> xband[3];

  /// X-drop sequence copies for the AVX2 kernel: the two sequences of the
  /// current extension, padded and oriented so that both characters of a
  /// cell sit at increasing addresses along an antidiagonal.
  std::vector<char> xseq[2];

  /// Smith-Waterman DP rows (previous / current).
  std::vector<int> sw_row[2];

  /// Smith-Waterman traceback direction matrix, (n+1) x (m+1) flattened.
  /// Outsized calls release their excess on return (smith_waterman trims
  /// the retained buffer to a 64 MiB high-water mark).
  std::vector<u8> sw_dirs;

  /// Reverse-complement scratch for reverse-orientation pairs (hoisted out
  /// of the alignment stage's per-task context).
  std::string b_rc;

  /// Times smith_waterman exceeded its traceback cell budget and fell back
  /// to the score-only banded kernel (surfaced as a pipeline counter).
  u64 sw_band_fallbacks = 0;
};

}  // namespace dibella::align
