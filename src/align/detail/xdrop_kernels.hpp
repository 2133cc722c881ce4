#pragma once
/// \file xdrop_kernels.hpp
/// The three implementations behind align::xdrop_extend / align_from_seed,
/// exposed so the differential suite can hold each one against align::ref
/// on any host. Pipeline code calls the public API in xdrop.hpp, which runs
/// the kernel dispatched once per process.

#include <limits>
#include <string_view>
#include <vector>

#include "align/scoring.hpp"
#include "align/workspace.hpp"
#include "align/xdrop.hpp"

namespace dibella::align::detail {

/// Dead-cell sentinel: far enough below any live score that adding a
/// substitution or gap to it never wins a max, never beats `best`, and
/// always fails the prune, and far enough above INT_MIN that it never
/// overflows.
inline constexpr int kXdropNegInf = std::numeric_limits<int>::min() / 4;

/// Above this the dead-cell sentinel arithmetic could collide with the prune
/// threshold; capping keeps behavior identical to the reference kernel for
/// any sequences shorter than ~25 Mbp (|score| < 10^8 always holds there).
inline constexpr int kXdropMaxX = 100'000'000;

/// Grow a workspace buffer to at least `n` elements (buffers never shrink,
/// so the steady state allocates nothing).
template <class T>
void ensure_size(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// One x-drop extension frame. Forward (`reversed == false`): a[0..) and
/// b[0..) walked from their starts. Reversed: a and b walked from their ends
/// toward their starts, which is the left extension of a seed whose
/// prefixes are `a` and `b`.
using XdropKernel = ExtendResult (*)(std::string_view a, std::string_view b,
                                     bool reversed, const Scoring& scoring, int xdrop,
                                     Workspace& ws);

/// One cell at a time; runs on any host.
ExtendResult xdrop_extend_scalar(std::string_view a, std::string_view b, bool reversed,
                                 const Scoring& scoring, int xdrop, Workspace& ws);

/// Eight int32 cells of an antidiagonal per AVX2 vector. Call only when
/// avx2_supported() holds.
ExtendResult xdrop_extend_avx2(std::string_view a, std::string_view b, bool reversed,
                               const Scoring& scoring, int xdrop, Workspace& ws);

/// A whole antidiagonal band in one 32 x int8 AVX2 register. Runs
/// xdrop_extend_avx2 instead when xdrop_i8_fits(scoring, xdrop) fails, and
/// restarts on it (counting ws.xdrop_restarts) when the band outgrows the
/// register. Call only when avx2_supported() holds.
ExtendResult xdrop_extend_i8(std::string_view a, std::string_view b, bool reversed,
                             const Scoring& scoring, int xdrop, Workspace& ws);

/// Whether xdrop_extend_i8 runs a call itself: 0 <= xdrop <= 127 - rise,
/// where rise = max(match, mismatch, gap, 0) < 64, and every scoring value
/// >= -128 (xdrop.hpp has the argument).
bool xdrop_i8_fits(const Scoring& scoring, int xdrop);

/// Copies view indices [from, to) of one extension frame into the oriented
/// sequence buffers: A[x] holds the x-th character of a's walk, and
/// B[m-1-y] the y-th character of b's walk, so that the two characters of
/// cell (i, d-i), a-walk[i-1] and b-walk[d-i-1], both sit at increasing
/// addresses as i grows. Only one side needs reversing: b on a forward walk,
/// a on a reversed one. Shared by the two AVX2 kernels.
void fill_oriented(std::string_view a, std::string_view b, bool reversed, i64 from,
                   i64 to, char* A, char* B);

/// True when this CPU (and OS) can run the AVX2 kernels.
bool avx2_supported();

/// Seed-anchored alignment (left extension reversed, right forward) through
/// an explicit kernel; align::align_from_seed passes the dispatched one.
SeedAlignment align_from_seed_with(XdropKernel kernel, std::string_view a,
                                   std::string_view b, u64 pos_a, u64 pos_b, int k,
                                   const Scoring& scoring, int xdrop, Workspace& ws);

}  // namespace dibella::align::detail
