#pragma once
/// \file radix_sort.hpp
/// Stable LSD radix sort on u64 keys — the DALIGNER-style replacement for
/// comparison sorts on the pipeline's record streams (overlap tasks grouped
/// by read pair before they are sent, a dense pair's seeds, alignment
/// records ahead of the per-block spill). A counting pass per byte touches
/// memory sequentially and costs O(n) per digit instead of O(n log n)
/// comparisons; bytes that are constant across the whole key set are
/// skipped, so narrow keys (dense read ids, positions) cost only the digits
/// they actually use.
///
/// Multi-component keys wider than 64 bits sort with repeated calls, least
/// significant component first — stability chains the passes exactly like
/// the digits within one call.

#include <cstring>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace dibella::util {

/// Stable LSD radix sort of `v` by `key(v[i])` ascending, where `key`
/// returns u64. Equal-key elements keep their relative order. `key` must be
/// a pure function of the element (it is re-evaluated across passes).
template <class T, class KeyFn>
void radix_sort_u64(std::vector<T>& v, KeyFn&& key) {
  const std::size_t n = v.size();
  if (n < 2) return;

  // One pre-scan builds every byte's digit histogram at once: digit counts
  // are a multiset property, independent of element order, so the same
  // histograms serve all passes. A byte whose histogram is concentrated in
  // a single bucket is constant across the key set and carries no ordering
  // information; those passes are skipped entirely (narrow keys — dense
  // read ids, positions — cost only the digits they actually use).
  std::vector<std::size_t> count(8 * 256, 0);
  for (const T& x : v) {
    const u64 k = key(x);
    for (int b = 0; b < 8; ++b) ++count[static_cast<std::size_t>(b) * 256 + ((k >> (8 * b)) & 0xFFu)];
  }

  std::vector<T> buf(n);
  T* src = v.data();
  T* dst = buf.data();
  for (int b = 0; b < 8; ++b) {
    std::size_t* cnt = count.data() + static_cast<std::size_t>(b) * 256;
    // Constant byte: some bucket holds every element.
    bool constant = false;
    std::size_t offset = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      if (cnt[d] == n) constant = true;
      std::size_t c = cnt[d];
      cnt[d] = offset;
      offset += c;
    }
    if (constant) continue;
    const int shift = 8 * b;
    for (std::size_t i = 0; i < n; ++i) {
      dst[cnt[(key(src[i]) >> shift) & 0xFFu]++] = std::move(src[i]);
    }
    std::swap(src, dst);
  }
  if (src != v.data()) {
    for (std::size_t i = 0; i < n; ++i) v[i] = std::move(src[i]);
  }
}

}  // namespace dibella::util
