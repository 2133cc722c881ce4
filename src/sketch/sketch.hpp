#pragma once
/// \file sketch.hpp
/// Minimizer sketching of a read's canonical k-mer occurrences — the
/// minimap2-style sampling layer in front of pipeline stages 1-3. Instead of
/// routing every k-mer window into the Bloom filter, hash table, and overlap
/// task exchange, each read keeps only its window minimizers (or closed
/// syncmers), cutting stage 1-3 traffic to ~2/(w+1) of the dense volume
/// while two overlapping reads still sample the same seeds from their shared
/// region.
///
/// Selection is a pure function of one read's sequence (and k, w, the
/// scheme), so the sampled set — and therefore every downstream output — is
/// independent of rank count, communication schedule, and block count, the
/// same invariance contract the dense pipeline pins.
///
/// Schemes:
///  * window minimizers (robust winnowing): over every window of `w`
///    consecutive valid k-mers, keep the one with the smallest sketch hash,
///    rightmost on ties. Windows slide over the read's *valid* windows
///    (non-ACGT characters break k-mer windows upstream), expected density
///    2/(w+1).
///  * closed syncmers (`syncmer = true`): a k-mer is kept iff the minimum
///    canonical s-mer hash inside it (s = k - w + 1, so each k-mer holds
///    exactly `w` s-mers) sits at its first or last s-mer position — a
///    context-free test with the same window-coverage guarantee, expected
///    density 2/w.
///
/// Either way a read with at least one valid k-mer always contributes at
/// least one seed: a read shorter than a full window keeps its winnowed
/// minimum.

#include <string_view>
#include <vector>

#include "kmer/parser.hpp"

namespace dibella::sketch {

/// Hash salt reserved for sketch selection — distinct from the owner-routing
/// and Bloom salts so the sampled set is uncorrelated with rank placement.
inline constexpr u64 kSketchSalt = 0x5EEDC0DE;

struct SketchConfig {
  /// Minimizer window in k-mers; 0 or 1 = dense (every window kept).
  u32 w = 0;
  /// Closed-syncmer selection instead of window minimizers. Requires
  /// 2 <= w <= k - 1 (s = k - w + 1 must leave s >= 2).
  bool syncmer = false;

  bool enabled() const { return w >= 2; }
};

struct SketchStats {
  u64 windows_scanned = 0;  ///< valid k-mer windows examined (dense count)
  u64 seeds_kept = 0;       ///< sampled occurrences emitted
};

/// Per-read seed sampler. Holds reusable scratch so the steady-state scan
/// performs no per-read allocations; not thread-safe, one per stream.
///
/// Window minimizers are picked in the same single pass that rolls the
/// k-mers. A ring holds the last `w` (hash, occurrence) entries and the
/// ring slot of the current window's minimum. A new k-mer whose hash is <=
/// that minimum becomes the minimum (so equal hashes resolve to the
/// rightmost: robust winnowing's tie rule, one seed per window of a repeat
/// run). Otherwise the ring is rescanned, oldest to newest with the same
/// <=, only when the minimum has just slid out of the window. The rightmost
/// minimum of a sliding window never moves left, so emitting the minimum
/// whenever it moves, from the first full window on, emits each window
/// minimizer exactly once and in position order.
class Sketcher {
 public:
  Sketcher(int k, const SketchConfig& cfg);

  /// Emit the sampled canonical k-mer occurrences of `seq` in position
  /// order via `fn(const kmer::Occurrence&)`. With sketching disabled this
  /// is exactly kmer::for_each_canonical_kmer.
  template <class Fn>
  void for_each_seed(std::string_view seq, Fn&& fn) {
    if (!cfg_.enabled()) {
      kmer::for_each_canonical_kmer(seq, k_, [&](const kmer::Occurrence& occ) {
        ++stats_.windows_scanned;
        ++stats_.seeds_kept;
        fn(occ);
      });
    } else if (cfg_.syncmer) {
      for_each_syncmer(seq, fn);
    } else {
      for_each_minimizer(seq, fn);
    }
  }

  const SketchStats& stats() const { return stats_; }
  const SketchConfig& config() const { return cfg_; }

 private:
  template <class Fn>
  void for_each_minimizer(std::string_view seq, Fn& fn) {
    const std::size_t w = cfg_.w;
    u64* hashes = ring_hash_.data();
    kmer::Occurrence* occs = ring_occ_.data();
    u64 n = 0;             // valid k-mer windows seen in this read
    std::size_t slot = 0;  // ring slot of window n
    std::size_t min_slot = 0;
    u64 min_hash = ~u64{0};
    u64 min_index = 0;      // window index of the current minimum
    u64 emitted = ~u64{0};  // window index of the last emitted minimum
    kmer::for_each_canonical_kmer(seq, k_, [&](const kmer::Occurrence& occ) {
      const u64 h = occ.kmer.hash(kSketchSalt);
      hashes[slot] = h;  // overwrites window n - w
      occs[slot] = occ;
      // Selects, not branches: a new minimum is a coin flip per window.
      const bool take = h <= min_hash;
      min_slot = take ? slot : min_slot;
      min_hash = take ? h : min_hash;
      min_index = take ? n : min_index;
      if (min_index + w == n) [[unlikely]] {
        // The minimum slid out: rescan windows n-w+1..n, oldest first.
        std::size_t s = slot + 1 == w ? 0 : slot + 1;
        min_slot = s;
        min_hash = hashes[s];
        for (std::size_t j = 1; j < w; ++j) {
          s = s + 1 == w ? 0 : s + 1;
          const bool le = hashes[s] <= min_hash;
          min_slot = le ? s : min_slot;
          min_hash = le ? hashes[s] : min_hash;
        }
        min_index = n - (slot >= min_slot ? slot - min_slot : slot + w - min_slot);
      }
      if (n + 1 >= w && min_index != emitted) {
        emitted = min_index;
        ++stats_.seeds_kept;
        fn(static_cast<const kmer::Occurrence&>(occs[min_slot]));
      }
      ++n;
      slot = slot + 1 == w ? 0 : slot + 1;
    });
    stats_.windows_scanned += n;
    if (n > 0 && n < w) {
      // No full window fits: keep the read's (rightmost) minimum, so every
      // read with >= 1 valid k-mer contributes a seed.
      ++stats_.seeds_kept;
      fn(static_cast<const kmer::Occurrence&>(occs[min_slot]));
    }
  }

  template <class Fn>
  void for_each_syncmer(std::string_view seq, Fn& fn) {
    hash_smers(seq);
    u64 n = 0;
    bool any = false;
    // The read's rightmost hash minimum, tracked while nothing is kept.
    u64 fallback_hash = ~u64{0};
    kmer::Occurrence fallback;
    kmer::for_each_canonical_kmer(seq, k_, [&](const kmer::Occurrence& occ) {
      ++n;
      if (closed_syncmer(occ.pos)) {
        any = true;
        ++stats_.seeds_kept;
        fn(occ);
      } else if (!any) {
        const u64 h = occ.kmer.hash(kSketchSalt);
        if (h <= fallback_hash) {
          fallback_hash = h;
          fallback = occ;
        }
      }
    });
    stats_.windows_scanned += n;
    if (n > 0 && !any) {
      // A read too short to carry a closed syncmer still contributes a seed.
      ++stats_.seeds_kept;
      fn(static_cast<const kmer::Occurrence&>(fallback));
    }
  }

  /// Canonical s-mer hash (s = k - w + 1) at every valid position of `seq`.
  void hash_smers(std::string_view seq);
  /// Whether the k-mer at `pos` is a closed syncmer (see the file comment).
  bool closed_syncmer(u32 pos) const;

  int k_;
  SketchConfig cfg_;
  SketchStats stats_;
  // Minimizer scan: hash and occurrence of the last w windows, by slot.
  std::vector<u64> ring_hash_;
  std::vector<kmer::Occurrence> ring_occ_;
  std::vector<u64> shash_;  // syncmer scan: s-mer hash per position
};

/// Expected sampled fraction of k-mer windows under `cfg` (1.0 when dense).
double expected_density(const SketchConfig& cfg);

}  // namespace dibella::sketch
