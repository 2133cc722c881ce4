#pragma once
/// \file seed_filter.hpp
/// Seed-selection policies (§5, §8): the runtime "exploration constraints"
/// deciding which of a pair's shared k-mers seed an alignment.
///
/// The paper's three experimental settings:
///   * one-seed            — exactly one seed per pair (lowest intensity)
///   * d = 1000            — all seeds separated by >= 1000 bp
///   * d = k (= 17)        — all seeds separated by >= k (highest intensity)

#include <vector>

#include "util/common.hpp"
#include "util/radix_sort.hpp"

namespace dibella::overlap {

/// One shared seed between a pair of reads, in each read's own coordinates.
struct SeedPair {
  u32 pos_a = 0;
  u32 pos_b = 0;
  u8 same_orientation = 1;  ///< 1: reads share the k-mer in the same strand sense, else 0

  friend bool operator==(const SeedPair&, const SeedPair&) = default;
};

struct SeedFilterConfig {
  enum class Policy { kOneSeed, kMinDistance };
  Policy policy = Policy::kOneSeed;
  u32 min_distance = 1000;  ///< only for kMinDistance
  u32 max_seeds = 0;        ///< optional cap per pair, 0 = unlimited

  /// The paper's named settings.
  static SeedFilterConfig one_seed() { return {Policy::kOneSeed, 0, 0}; }
  static SeedFilterConfig spaced(u32 d) { return {Policy::kMinDistance, d, 0}; }
  static SeedFilterConfig all_seeds(int k) {
    return {Policy::kMinDistance, static_cast<u32>(k), 0};
  }
};

/// Apply a policy to a pair's seed list. Input order is irrelevant; output
/// is deterministic: seeds are sorted by (pos_a, pos_b) within each
/// orientation group (same_orientation = 1 first), deduplicated, then
///   * one-seed: the median-by-pos_a seed (central seeds extend both ways)
///     of the group with more distinct seeds (same orientation on a tie)
///   * min-distance: greedy left-to-right selection with pos_a gaps >= d,
///     applied independently per orientation group.
std::vector<SeedPair> filter_seeds(const std::vector<SeedPair>& seeds,
                                   const SeedFilterConfig& cfg);

/// filter_seeds for a caller that filters many pairs in turn (stage 3's
/// consolidation): each pair's seeds are added as packed pos_a << 32 | pos_b
/// keys, one vector per orientation group, and sorted in buffers kept
/// across pairs, so a pair costs no allocation beyond its output.
class SeedSorter {
 public:
  /// Add one seed of the current pair. `same_orientation` must be 0 or 1.
  void add(u32 pos_a, u32 pos_b, u8 same_orientation) {
    keys_[same_orientation].push_back(static_cast<u64>(pos_a) << 32 | pos_b);
  }

  /// filter_seeds of the seeds added since the last call; empties the
  /// sorter for the next pair.
  std::vector<SeedPair> filter(const SeedFilterConfig& cfg);

 private:
  std::vector<u64> keys_[2];  ///< indexed by same_orientation
  util::RadixScratch<u64> scratch_;
};

}  // namespace dibella::overlap
