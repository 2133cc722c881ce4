#pragma once
/// \file workspace.hpp
/// Reusable scratch arena for the alignment kernels.
///
/// The alignment stage is the pipeline's hottest loop (§9: the largest and
/// most load-imbalanced stage). Each stage-4 worker constructs one Workspace
/// and threads it through run_alignment_stage -> align_from_seed ->
/// xdrop_extend; every kernel invocation then borrows buffers from the arena
/// instead of allocating. Buffers only ever grow, so after a warm-up pass
/// over the largest task the steady-state alignment loop performs zero heap
/// allocations per seed (tests/test_align_differential.cpp pins this down
/// with a counting operator new).
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

  /// X-drop sequence copies for the int8 kernel: the two sequences of the
  /// current extension, padded and oriented so that both characters of a
  /// cell sit at increasing addresses along an antidiagonal.
  std::vector<char> xseq[2];

  /// Extensions the int8 kernel restarted on the scalar kernel because the
  /// band outgrew its 32 lanes (a running count; the alignment stage reports
  /// it on the `align:extend` span).
  u64 xdrop_restarts = 0;

  /// Reverse-complement scratch for reverse-orientation pairs (hoisted out
  /// of the alignment stage's per-task context).
  std::string b_rc;
};

}  // namespace dibella::align
