// Unit tests for the minimizer sketch layer (src/sketch/): dense-mode
// identity, subset + window-coverage guarantees, expected density, strand
// symmetry (the property that makes sampled seeding find shared seeds), the
// closed-syncmer scheme, the short-read fallback, the one-pass scans against
// brute-force oracles, and the pooled stage 1-2 stream against the serial one.

#include "sketch/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "io/read_store.hpp"
#include "kmer/occurrence_stream.hpp"
#include "kmer/parser.hpp"
#include "util/random.hpp"

using dibella::u32;
using dibella::u64;
using dibella::kmer::Occurrence;
using dibella::sketch::SketchConfig;
using dibella::sketch::Sketcher;

namespace {

std::string random_dna(u64 seed, std::size_t n) {
  dibella::util::Xoshiro256 rng(seed);
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

std::string reverse_complement(const std::string& s) {
  std::string rc(s.rbegin(), s.rend());
  for (auto& c : rc) {
    switch (c) {
      case 'A': c = 'T'; break;
      case 'C': c = 'G'; break;
      case 'G': c = 'C'; break;
      case 'T': c = 'A'; break;
    }
  }
  return rc;
}

std::vector<Occurrence> dense_occurrences(const std::string& seq, int k) {
  std::vector<Occurrence> occ;
  dibella::kmer::for_each_canonical_kmer(
      seq, k, [&](const Occurrence& o) { occ.push_back(o); });
  return occ;
}

std::vector<Occurrence> sketch_occurrences(const std::string& seq, int k,
                                           const SketchConfig& cfg) {
  Sketcher sk(k, cfg);
  std::vector<Occurrence> occ;
  sk.for_each_seed(seq, [&](const Occurrence& o) { occ.push_back(o); });
  return occ;
}

}  // namespace

TEST(Sketch, DenseModeIsExactlyTheCanonicalKmerStream) {
  const int k = 17;
  const std::string seq = random_dna(11, 400);
  auto dense = dense_occurrences(seq, k);
  for (u32 w : {0u, 1u}) {  // both below the enablement threshold
    auto got = sketch_occurrences(seq, k, SketchConfig{w, false});
    ASSERT_EQ(got.size(), dense.size()) << "w=" << w;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].pos, dense[i].pos);
      EXPECT_EQ(got[i].kmer, dense[i].kmer);
    }
  }
}

TEST(Sketch, MinimizersAreASubsetWithFullWindowCoverage) {
  const int k = 17;
  const u32 w = 7;
  const std::string seq = random_dna(23, 1200);
  auto dense = dense_occurrences(seq, k);
  auto kept = sketch_occurrences(seq, k, SketchConfig{w, false});
  ASSERT_FALSE(kept.empty());
  ASSERT_LT(kept.size(), dense.size());

  // Subset, in position order.
  std::set<u32> dense_pos, kept_pos;
  for (const auto& o : dense) dense_pos.insert(o.pos);
  for (const auto& o : kept) {
    EXPECT_TRUE(dense_pos.count(o.pos)) << "pos " << o.pos << " not a k-mer window";
    kept_pos.insert(o.pos);
  }
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LT(kept[i - 1].pos, kept[i].pos);
  }

  // The winnowing guarantee: every window of w consecutive k-mers keeps one.
  for (std::size_t i = 0; i + w <= dense.size(); ++i) {
    bool covered = false;
    for (u32 j = 0; j < w; ++j) covered |= kept_pos.count(dense[i + j].pos) > 0;
    EXPECT_TRUE(covered) << "window of " << w << " k-mers at index " << i
                         << " kept no minimizer";
  }
}

TEST(Sketch, DensityTracksExpectation) {
  const int k = 17;
  const std::string seq = random_dna(5, 60'000);
  for (u32 w : {5u, 10u, 19u, 50u}) {
    SketchConfig cfg{w, false};
    Sketcher sk(k, cfg);
    u64 kept = 0;
    sk.for_each_seed(seq, [&](const Occurrence&) { ++kept; });
    const double measured = static_cast<double>(kept) /
                            static_cast<double>(sk.stats().windows_scanned);
    const double expected = dibella::sketch::expected_density(cfg);
    EXPECT_NEAR(measured, expected, 0.35 * expected) << "w=" << w;
    EXPECT_EQ(sk.stats().seeds_kept, kept);
  }
}

TEST(Sketch, MinimizerSelectionIsStrandSymmetric) {
  // Sketching a read and its reverse complement must keep the same k-mers
  // (positions mirrored): overlapping reads sequenced from opposite strands
  // sample identical seeds from their shared region.
  const int k = 17;
  const std::string fwd = random_dna(31, 900);
  const std::string rc = reverse_complement(fwd);
  for (bool syncmer : {false, true}) {
    const SketchConfig cfg{10, syncmer};
    auto kept_f = sketch_occurrences(fwd, k, cfg);
    auto kept_r = sketch_occurrences(rc, k, cfg);
    ASSERT_EQ(kept_f.size(), kept_r.size()) << "syncmer=" << syncmer;
    std::set<u32> mirrored;
    for (const auto& o : kept_r) {
      mirrored.insert(static_cast<u32>(fwd.size()) - k - o.pos);
    }
    for (const auto& o : kept_f) {
      EXPECT_TRUE(mirrored.count(o.pos))
          << "syncmer=" << syncmer << ": fwd minimizer at " << o.pos
          << " missing from the reverse-complement sketch";
    }
  }
}

TEST(Sketch, ClosedSyncmersAreSparserSubset) {
  const int k = 17;
  const u32 w = 10;
  const std::string seq = random_dna(47, 30'000);
  auto dense = dense_occurrences(seq, k);
  auto kept = sketch_occurrences(seq, k, SketchConfig{w, true});
  ASSERT_FALSE(kept.empty());
  std::set<u32> dense_pos;
  for (const auto& o : dense) dense_pos.insert(o.pos);
  for (const auto& o : kept) EXPECT_TRUE(dense_pos.count(o.pos));
  const double measured =
      static_cast<double>(kept.size()) / static_cast<double>(dense.size());
  const double expected =
      dibella::sketch::expected_density(SketchConfig{w, true});  // ~2/w
  EXPECT_NEAR(measured, expected, 0.35 * expected);
}

TEST(Sketch, ShortReadStillContributesOneSeed) {
  const int k = 17;
  const u32 w = 10;
  // 20 bases = 4 k-mer windows, fewer than w: the fallback keeps exactly one.
  const std::string seq = random_dna(53, 20);
  ASSERT_EQ(dense_occurrences(seq, k).size(), 4u);
  for (bool syncmer : {false, true}) {
    auto kept = sketch_occurrences(seq, k, SketchConfig{w, syncmer});
    EXPECT_GE(kept.size(), 1u) << "syncmer=" << syncmer;
    EXPECT_LE(kept.size(), 4u) << "syncmer=" << syncmer;
  }
}

TEST(Sketch, SketcherIsReusableAcrossReads) {
  // One Sketcher instance streams many reads (per-rank usage); scratch state
  // must not leak between reads.
  const int k = 17;
  const SketchConfig cfg{10, false};
  Sketcher sk(k, cfg);
  const std::string a = random_dna(61, 500);
  const std::string b = random_dna(67, 700);
  std::vector<Occurrence> first, again;
  sk.for_each_seed(a, [&](const Occurrence& o) { first.push_back(o); });
  sk.for_each_seed(b, [&](const Occurrence&) {});
  sk.for_each_seed(a, [&](const Occurrence& o) { again.push_back(o); });
  ASSERT_EQ(first.size(), again.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].pos, again[i].pos);
    EXPECT_EQ(first[i].kmer, again[i].kmer);
  }
}

TEST(Sketch, ExpectedDensityFormula) {
  EXPECT_DOUBLE_EQ(dibella::sketch::expected_density(SketchConfig{0, false}), 1.0);
  EXPECT_DOUBLE_EQ(dibella::sketch::expected_density(SketchConfig{1, false}), 1.0);
  EXPECT_DOUBLE_EQ(dibella::sketch::expected_density(SketchConfig{9, false}),
                   2.0 / 10.0);
  EXPECT_DOUBLE_EQ(dibella::sketch::expected_density(SketchConfig{10, true}),
                   2.0 / 10.0);
}

// --- the one-pass scans against brute-force oracles --------------------------

namespace {

/// Robust winnowing by definition: the rightmost hash minimum of every
/// window of w consecutive valid k-mers (the read's rightmost minimum when
/// no full window fits), each kept once, in position order.
std::vector<Occurrence> minimizer_oracle(const std::string& seq, int k, u32 w) {
  const auto dense = dense_occurrences(seq, k);
  const std::size_t n = dense.size();
  std::set<std::size_t> kept;
  const auto rightmost_min = [&](std::size_t begin, std::size_t end) {
    std::size_t arg = begin;
    for (std::size_t i = begin; i < end; ++i) {
      if (dense[i].kmer.hash(dibella::sketch::kSketchSalt) <=
          dense[arg].kmer.hash(dibella::sketch::kSketchSalt)) {
        arg = i;
      }
    }
    return arg;
  };
  if (n > 0 && n < w) kept.insert(rightmost_min(0, n));
  for (std::size_t i = 0; n >= w && i + w <= n; ++i) kept.insert(rightmost_min(i, i + w));
  std::vector<Occurrence> out;
  for (std::size_t i : kept) out.push_back(dense[i]);
  return out;
}

/// Closed syncmers by definition, with the same rightmost-minimum fallback
/// for a read that carries none.
std::vector<Occurrence> syncmer_oracle(const std::string& seq, int k, u32 w) {
  const int s = k - static_cast<int>(w) + 1;
  const auto dense = dense_occurrences(seq, k);
  std::vector<Occurrence> out;
  for (const Occurrence& o : dense) {
    std::vector<u64> h;
    for (const Occurrence& so : dense_occurrences(seq.substr(o.pos, k), s)) {
      h.push_back(so.kmer.hash(dibella::sketch::kSketchSalt));
    }
    const u64 mn = *std::min_element(h.begin(), h.end());
    if (h.front() == mn || h.back() == mn) out.push_back(o);
  }
  if (out.empty() && !dense.empty()) {
    std::size_t arg = 0;
    for (std::size_t i = 0; i < dense.size(); ++i) {
      if (dense[i].kmer.hash(dibella::sketch::kSketchSalt) <=
          dense[arg].kmer.hash(dibella::sketch::kSketchSalt)) {
        arg = i;
      }
    }
    out.push_back(dense[arg]);
  }
  return out;
}

/// Reads that stress the scans: random, N-broken runs, shorter than a
/// window, and tie-heavy repeats (homopolymers, short tandem repeats, a
/// repeated block) where many windows hold equal hashes.
std::vector<std::string> scan_corpus(u64 seed) {
  std::vector<std::string> reads;
  reads.push_back(random_dna(seed, 700));
  std::string broken = random_dna(seed + 1, 600);
  for (std::size_t i = 37; i < broken.size(); i += 53 + (i % 29)) broken[i] = 'N';
  broken.replace(300, 12, std::string(12, 'N'));
  reads.push_back(broken);
  reads.push_back(std::string(90, 'A'));
  std::string str;
  while (str.size() < 240) str += "ACG";
  reads.push_back(str);
  str.clear();
  while (str.size() < 240) str += "ACGTTGCA";
  reads.push_back(str);
  const std::string block = random_dna(seed + 2, 23);
  str = block + block + random_dna(seed + 3, 7) + block + block + block;
  reads.push_back(str);
  for (std::size_t len : {0u, 5u, 16u, 17u, 18u, 20u, 25u, 31u, 32u, 33u}) {
    reads.push_back(random_dna(seed + 4 + len, len));
  }
  reads.push_back(std::string("ACGTACGTACGTACGTACGTN") + random_dna(seed + 5, 19));
  return reads;
}

void expect_same_seeds(const std::vector<Occurrence>& got,
                       const std::vector<Occurrence>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pos, want[i].pos) << where << " seed " << i;
    EXPECT_EQ(got[i].kmer, want[i].kmer) << where << " seed " << i;
    EXPECT_EQ(got[i].is_forward, want[i].is_forward) << where << " seed " << i;
  }
}

}  // namespace

TEST(SketchScan, MinimizerScanMatchesRightmostMinimumOracle) {
  const int k = 17;
  for (u32 w = 2; w <= 16; ++w) {
    // One Sketcher per w streams the whole corpus, so ring state carried
    // from read to read would show.
    Sketcher sk(k, SketchConfig{w, false});
    u64 windows = 0;
    u64 seeds = 0;
    for (const std::string& read : scan_corpus(100 + w)) {
      std::vector<Occurrence> got;
      sk.for_each_seed(read, [&](const Occurrence& o) { got.push_back(o); });
      const auto want = minimizer_oracle(read, k, w);
      expect_same_seeds(got, want,
                        "w=" + std::to_string(w) + " len=" + std::to_string(read.size()));
      windows += dense_occurrences(read, k).size();
      seeds += want.size();
    }
    EXPECT_EQ(sk.stats().windows_scanned, windows) << "w=" << w;
    EXPECT_EQ(sk.stats().seeds_kept, seeds) << "w=" << w;
  }
}

TEST(SketchScan, SyncmerScanMatchesClosedSyncmerOracle) {
  const int k = 17;
  for (u32 w = 2; w <= 16; ++w) {
    Sketcher sk(k, SketchConfig{w, true});
    for (const std::string& read : scan_corpus(200 + w)) {
      std::vector<Occurrence> got;
      sk.for_each_seed(read, [&](const Occurrence& o) { got.push_back(o); });
      expect_same_seeds(got, syncmer_oracle(read, k, w),
                        "w=" + std::to_string(w) + " len=" + std::to_string(read.size()));
    }
  }
}

// --- kmer::OccurrenceStream: the sketch pool posts the serial stream ---------

TEST(OccurrenceStream, PostsTheSerialStreamBatchesForEveryWorkerCount) {
  // Oracle: one Sketcher walks the reads in order, routes each seed to
  // hash % ranks, and closes a batch after the first read that brings it to
  // the budget. Every worker count must post the same records per
  // destination per batch, with the same seed and window counts.
  const int k = 17;
  const int ranks = 3;
  std::vector<dibella::io::Read> reads;
  std::vector<u64> lens;
  for (u64 g = 0; g < 200; ++g) {
    dibella::io::Read r;
    r.gid = g;
    r.seq = random_dna(300 + g, g % 7 == 0 ? 10 : 2'000 + 500 * (g % 13));
    if (g % 5 == 0) r.seq[r.seq.size() / 2] = 'N';
    lens.push_back(r.seq.size());
    reads.push_back(std::move(r));
  }
  const dibella::io::ReadStore store(reads, dibella::io::ReadPartition(lens, 1), 0);
  const auto owner = [&](const Occurrence& occ) {
    return static_cast<int>(occ.kmer.hash(7) % ranks);
  };
  struct Batch {
    std::vector<std::vector<dibella::kmer::Kmer>> keys =
        std::vector<std::vector<dibella::kmer::Kmer>>(ranks);
    u64 seeds = 0;
    u64 windows = 0;
    bool operator==(const Batch&) const = default;
  };
  for (const SketchConfig cfg :
       {SketchConfig{0, false}, SketchConfig{10, false}, SketchConfig{10, true}}) {
    for (u64 budget : {u64{1}, u64{150}, u64{2'000}, u64{1} << 30}) {
      std::vector<Batch> want;
      Sketcher sk(k, cfg);
      for (std::size_t r = 0; r < reads.size();) {
        Batch& b = want.emplace_back();
        for (; r < reads.size() && b.seeds < budget; ++r) {
          const u64 windows_before = sk.stats().windows_scanned;
          sk.for_each_seed(reads[r].seq, [&](const Occurrence& occ) {
            b.keys[static_cast<std::size_t>(owner(occ))].push_back(occ.kmer);
            ++b.seeds;
          });
          b.windows += sk.stats().windows_scanned - windows_before;
        }
      }
      for (int workers : {1, 2, 4}) {
        dibella::kmer::OccurrenceStream<dibella::kmer::Kmer> stream(store, k, cfg, ranks,
                                                                     workers);
        const auto route = [&](u64, const Occurrence& occ, dibella::kmer::Kmer& key) {
          key = occ.kmer;
          return owner(occ);
        };
        std::vector<Batch> got;
        do {
          Batch& b = got.emplace_back();
          const auto f = stream.fill(
              budget, route, [&](int d, const dibella::kmer::Kmer* keys, std::size_t n) {
                auto& out = b.keys[static_cast<std::size_t>(d)];
                out.insert(out.end(), keys, keys + n);
              });
          b.seeds = f.seeds;
          b.windows = f.windows;
        } while (stream.more());
        EXPECT_TRUE(got == want) << "w=" << cfg.w << " syncmer=" << cfg.syncmer
                                 << " budget=" << budget
                                 << " workers=" << workers << ": " << got.size()
                                 << " batches, want " << want.size();
      }
    }
  }
}
