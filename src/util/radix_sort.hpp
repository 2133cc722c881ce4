#pragma once
/// \file radix_sort.hpp
/// Stable LSD radix sort on u64 keys — the DALIGNER-style replacement for
/// comparison sorts on the pipeline's record streams (overlap tasks grouped
/// by read pair before they are sent, a dense pair's seeds, alignment
/// records ahead of the per-block spill). A counting pass per digit touches
/// memory sequentially and costs O(n) instead of O(n log n) comparisons;
/// bits that are constant across the whole key set get no digit, so narrow
/// keys (dense read ids, positions) cost only the digits they actually use.
///
/// Multi-component keys wider than 64 bits sort with repeated calls, least
/// significant component first — stability chains the passes exactly like
/// the digits within one call.

#include <algorithm>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace dibella::util {

/// The buffers one sort works in. A caller that sorts many small vectors
/// (one pair's seeds at a time) keeps one and passes it to every call, so
/// no call allocates once the buffers have grown.
template <class T>
struct RadixScratch {
  std::vector<std::size_t> count;  ///< one histogram per digit
  std::vector<T> buf;              ///< the passes' other half
};

/// Stable LSD radix sort of `v` by `key(v[i])` ascending, where `key`
/// returns u64, in the buffers of `scratch`. Equal-key elements keep their
/// relative order. `key` must be a pure function of the element (it is
/// re-evaluated across passes). `v` may come back in `scratch.buf`'s former
/// storage (the two are swapped after an odd number of passes).
template <class T, class KeyFn>
void radix_sort_u64(std::vector<T>& v, KeyFn&& key, RadixScratch<T>& scratch) {
  const std::size_t n = v.size();
  if (n < 2) return;

  // A bit on which every key agrees carries no ordering information. One
  // pre-scan finds the bits that vary (set in some key, clear in another);
  // each maximal run of them is split into equal digits of at most 8 bits,
  // or 11 on inputs large enough to fill 2048 buckets, and the constant bits
  // get no pass at all. A second pre-scan builds every digit's histogram at
  // once: digit counts are a multiset property, independent of element
  // order, so the same histograms serve all passes.
  u64 any = 0, all = ~u64{0};
  for (const T& x : v) {
    const u64 k = key(x);
    any |= k;
    all &= k;
  }
  const u64 varying = any & ~all;
  const int max_bits = n >= (std::size_t{1} << 14) ? 11 : 8;
  int shifts[64];
  std::size_t sizes[64];
  int passes = 0;
  for (int bit = 0; bit < 64;) {
    if (((varying >> bit) & 1u) == 0) {
      ++bit;
      continue;
    }
    int end = bit;
    while (end < 64 && ((varying >> end) & 1u)) ++end;
    const int digits = (end - bit + max_bits - 1) / max_bits;
    const int width = (end - bit + digits - 1) / digits;
    // The last digit may be narrower; the next run starts at `end`, not
    // where the digits' stride would land past it.
    for (int b = bit; b < end; b += width) {
      shifts[passes] = b;
      sizes[passes++] = std::size_t{1} << std::min(width, end - b);
    }
    bit = end;
  }
  if (passes == 0) return;

  std::size_t offsets[65] = {0};  // each digit's histogram in scratch.count
  for (int p = 0; p < passes; ++p) offsets[p + 1] = offsets[p] + sizes[p];
  scratch.count.assign(offsets[passes], 0);
  std::size_t* const count = scratch.count.data();
  for (const T& x : v) {
    const u64 k = key(x);
    for (int p = 0; p < passes; ++p) {
      ++count[offsets[p] + ((k >> shifts[p]) & (sizes[p] - 1))];
    }
  }

  if (scratch.buf.size() < n) scratch.buf.resize(n);
  T* src = v.data();
  T* dst = scratch.buf.data();
  for (int p = 0; p < passes; ++p) {
    std::size_t* cnt = count + offsets[p];
    std::size_t offset = 0;
    for (std::size_t d = 0; d < sizes[p]; ++d) {
      const std::size_t c = cnt[d];
      cnt[d] = offset;
      offset += c;
    }
    const int shift = shifts[p];
    const u64 mask = sizes[p] - 1;
    for (std::size_t i = 0; i < n; ++i) {
      dst[cnt[(key(src[i]) >> shift) & mask]++] = std::move(src[i]);
    }
    std::swap(src, dst);
  }
  if (src != v.data()) {
    // The sorted elements are the first n of scratch.buf: trade storage.
    v.swap(scratch.buf);
    v.resize(n);
  }
}

/// As above, in buffers of its own.
template <class T, class KeyFn>
void radix_sort_u64(std::vector<T>& v, KeyFn&& key) {
  RadixScratch<T> scratch;
  radix_sort_u64(v, std::forward<KeyFn>(key), scratch);
}

}  // namespace dibella::util
