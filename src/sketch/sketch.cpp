#include "sketch/sketch.hpp"

#include <algorithm>

namespace dibella::sketch {

Sketcher::Sketcher(int k, const SketchConfig& cfg) : k_(k), cfg_(cfg) {
  if (cfg_.enabled() && cfg_.syncmer) {
    DIBELLA_CHECK(cfg_.w <= static_cast<u32>(k) - 1,
                  "syncmer mode needs w <= k - 1 (s = k - w + 1 must be >= 2)");
  }
  if (cfg_.enabled() && !cfg_.syncmer) {
    ring_hash_.resize(cfg_.w);
    ring_occ_.resize(cfg_.w);
  }
}

void Sketcher::hash_smers(std::string_view seq) {
  // Every s-mer inside a valid k-mer window is itself valid, so the lookups
  // in closed_syncmer never see the sentinel.
  const int s = k_ - static_cast<int>(cfg_.w) + 1;
  shash_.assign(seq.size(), ~u64{0});
  kmer::for_each_canonical_kmer(seq, s, [&](const kmer::Occurrence& so) {
    shash_[so.pos] = so.kmer.hash(kSketchSalt);
  });
}

bool Sketcher::closed_syncmer(u32 pos) const {
  // Closed syncmer: the k-mer's minimal s-mer sits at its first or last
  // offset. Testing "an argmin is at either end" (rather than picking one
  // argmin) keeps the rule strand-symmetric: reverse-complementing maps
  // offset o to w-1-o, so the end set {0, w-1} maps to itself.
  const std::size_t w = cfg_.w;
  const u64* h = shash_.data() + pos;
  u64 mn = h[0];
  for (std::size_t j = 1; j < w; ++j) mn = std::min(mn, h[j]);
  return h[0] == mn || h[w - 1] == mn;
}

double expected_density(const SketchConfig& cfg) {
  if (!cfg.enabled()) return 1.0;
  return cfg.syncmer ? 2.0 / static_cast<double>(cfg.w)
                     : 2.0 / static_cast<double>(cfg.w + 1);
}

}  // namespace dibella::sketch
