#pragma once
/// \file xdrop_kernels.hpp
/// The two implementations behind align::xdrop_extend / align_from_seed,
/// exposed so the differential suite can hold each one against align::ref
/// on any host. Pipeline code calls the public API in xdrop.hpp, which runs
/// the kernel dispatched once per process.

#include <string_view>
#include <vector>

#include "align/scoring.hpp"
#include "align/workspace.hpp"
#include "align/xdrop.hpp"

namespace dibella::align::detail {

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

/// One cell at a time; runs on any host, and takes the int8 kernel's
/// fallbacks.
ExtendResult xdrop_extend_scalar(std::string_view a, std::string_view b, bool reversed,
                                 const Scoring& scoring, int xdrop, Workspace& ws);

/// A whole antidiagonal band in one 32 x int8 AVX2 register. Runs
/// xdrop_extend_scalar instead when xdrop_i8_fits(scoring, xdrop) fails, and
/// restarts on it (counting ws.xdrop_restarts) when the band outgrows the
/// register. Call only when avx2_supported() holds.
ExtendResult xdrop_extend_i8(std::string_view a, std::string_view b, bool reversed,
                             const Scoring& scoring, int xdrop, Workspace& ws);

/// Whether xdrop_extend_i8 runs a call itself: rise = max(match, mismatch,
/// gap, 0) <= 1, 0 <= xdrop <= 127 - rise, and every scoring value >= -128
/// (xdrop.hpp has the argument).
bool xdrop_i8_fits(const Scoring& scoring, int xdrop);

/// True when this CPU (and OS) can run the int8 kernel.
bool avx2_supported();

/// Seed-anchored alignment (left extension reversed, right forward) through
/// an explicit kernel; align::align_from_seed passes the dispatched one.
SeedAlignment align_from_seed_with(XdropKernel kernel, std::string_view a,
                                   std::string_view b, u64 pos_a, u64 pos_b, int k,
                                   const Scoring& scoring, int xdrop, Workspace& ws);

}  // namespace dibella::align::detail
