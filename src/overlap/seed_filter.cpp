#include "overlap/seed_filter.hpp"

#include <algorithm>

#include "util/radix_sort.hpp"

namespace dibella::overlap {

namespace {

/// Seeds per pair above which the sort runs radix passes. Per seed, on a
/// Xeon core: 128 seeds sort in 55 ns by comparison vs 70 ns by radix, 192
/// in 62 vs 55 ns, 640 (dense seeding's mean) in 73 vs 30 ns.
constexpr std::size_t kRadixSeeds = 160;

/// Order a pair's seeds: the same_orientation = 1 group first, each group
/// ascending by (pos_a, pos_b).
void sort_seeds(std::vector<SeedPair>& seeds) {
  if (seeds.size() <= kRadixSeeds) {
    std::sort(seeds.begin(), seeds.end(), [](const SeedPair& x, const SeedPair& y) {
      if (x.same_orientation != y.same_orientation)
        return x.same_orientation > y.same_orientation;
      if (x.pos_a != y.pos_a) return x.pos_a < y.pos_a;
      return x.pos_b < y.pos_b;
    });
    return;
  }
  // Each orientation group as packed (pos_a, pos_b) keys.
  std::vector<u64> keys[2];
  for (const auto& s : seeds) {
    DIBELLA_CHECK(s.same_orientation <= 1, "seed orientation is not 0 or 1");
    keys[s.same_orientation].push_back(static_cast<u64>(s.pos_a) << 32 | s.pos_b);
  }
  seeds.clear();
  for (const u8 orientation : {u8{1}, u8{0}}) {
    util::radix_sort_u64(keys[orientation], [](u64 key) { return key; });
    for (const u64 key : keys[orientation]) {
      seeds.push_back(SeedPair{static_cast<u32>(key >> 32), static_cast<u32>(key), orientation});
    }
  }
}

}  // namespace

std::vector<SeedPair> filter_seeds(std::vector<SeedPair> seeds,
                                   const SeedFilterConfig& cfg) {
  if (seeds.empty()) return seeds;
  sort_seeds(seeds);
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  std::vector<SeedPair> out;
  if (cfg.policy == SeedFilterConfig::Policy::kOneSeed) {
    // Prefer the dominant orientation group, take its median seed.
    std::size_t fwd = 0;
    while (fwd < seeds.size() && seeds[fwd].same_orientation) ++fwd;
    std::size_t rev = seeds.size() - fwd;
    std::size_t begin = fwd >= rev ? 0 : fwd;
    std::size_t len = fwd >= rev ? fwd : rev;
    if (len == 0) {  // single orientation only
      begin = 0;
      len = seeds.size();
    }
    out.push_back(seeds[begin + len / 2]);
  } else {
    u8 group = 2;  // sentinel distinct from 0/1
    u64 next_ok = 0;
    for (const auto& s : seeds) {
      if (s.same_orientation != group) {
        group = s.same_orientation;
        next_ok = 0;
      }
      if (s.pos_a >= next_ok) {
        out.push_back(s);
        next_ok = static_cast<u64>(s.pos_a) + cfg.min_distance;
      }
    }
  }
  if (cfg.max_seeds > 0 && out.size() > cfg.max_seeds) out.resize(cfg.max_seeds);
  return out;
}

}  // namespace dibella::overlap
