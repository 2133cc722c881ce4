// Tests for the alignment kernels: x-drop extension (vs an exact
// no-pruning oracle), seed-anchored alignment, the full and banded
// Smith-Waterman kernels of align::ref (x-drop's score oracle), and
// orientation handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "align/reference_kernels.hpp"
#include "align/xdrop.hpp"
#include "kmer/dna.hpp"
#include "util/random.hpp"

namespace da = dibella::align;
using dibella::u64;

namespace {

std::string random_dna(dibella::util::Xoshiro256& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

std::string mutate(const std::string& s, double rate, dibella::util::Xoshiro256& rng) {
  std::string out;
  for (char c : s) {
    if (rng.bernoulli(rate)) {
      double roll = rng.uniform();
      if (roll < 0.4) {  // substitution
        out.push_back("ACGT"[rng.uniform_below(4)]);
      } else if (roll < 0.7) {  // insertion
        out.push_back("ACGT"[rng.uniform_below(4)]);
        out.push_back(c);
      }  // else deletion: drop c
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Exact (no-pruning) oracle for extension alignment: the best score over
/// all prefix pairs, O(nm).
int extension_oracle(const std::string& a, const std::string& b,
                     const da::Scoring& sc) {
  const std::size_t n = a.size(), m = b.size();
  std::vector<int> prev(m + 1), cur(m + 1);
  int best = 0;
  for (std::size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j) * sc.gap;
  best = std::max(best, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i) * sc.gap;
    for (std::size_t j = 1; j <= m; ++j) {
      cur[j] = std::max({prev[j - 1] + sc.substitution(a[i - 1], b[j - 1]),
                         prev[j] + sc.gap, cur[j - 1] + sc.gap});
    }
    for (std::size_t j = 0; j <= m; ++j) best = std::max(best, cur[j]);
    std::swap(prev, cur);
  }
  for (std::size_t j = 0; j <= m; ++j) best = std::max(best, prev[j]);
  return best;
}

}  // namespace

TEST(XDrop, IdenticalSequencesScoreFully) {
  da::Scoring sc;
  auto r = da::xdrop_extend("ACGTACGTAC", "ACGTACGTAC", sc, 10);
  EXPECT_EQ(r.score, 10);
  EXPECT_EQ(r.ext_a, 10u);
  EXPECT_EQ(r.ext_b, 10u);
}

TEST(XDrop, EmptyInputs) {
  da::Scoring sc;
  auto r = da::xdrop_extend("", "", sc, 10);
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.ext_a, 0u);
  r = da::xdrop_extend("ACGT", "", sc, 10);
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.ext_b, 0u);
}

TEST(XDrop, DivergentSequencesTerminateEarly) {
  dibella::util::Xoshiro256 rng(1);
  // Two unrelated long sequences: x-drop must abandon quickly — the §9
  // property that causes alignment-stage load imbalance.
  std::string a = random_dna(rng, 4000);
  std::string b = random_dna(rng, 4000);
  da::Scoring sc;
  auto r = da::xdrop_extend(a, b, sc, 10);
  // Work far below the full O(nm) = 16M cells.
  EXPECT_LT(r.cells, 400'000u);
  EXPECT_LT(r.score, 60);
}

TEST(XDrop, HugeXMatchesExactOracle) {
  dibella::util::Xoshiro256 rng(2);
  da::Scoring sc;
  for (int trial = 0; trial < 12; ++trial) {
    std::string a = random_dna(rng, 40 + rng.uniform_below(60));
    std::string b = mutate(a, 0.15, rng);
    int oracle = extension_oracle(a, b, sc);
    auto got = da::xdrop_extend(a, b, sc, 1'000'000);
    EXPECT_EQ(got.score, oracle) << "trial " << trial;
  }
}

TEST(XDrop, ScoreMonotoneInX) {
  dibella::util::Xoshiro256 rng(3);
  da::Scoring sc;
  std::string a = random_dna(rng, 300);
  std::string b = mutate(a, 0.2, rng);
  int prev_score = -1;
  u64 prev_cells = 0;
  for (int x : {2, 5, 10, 30, 100, 100000}) {
    auto r = da::xdrop_extend(a, b, sc, x);
    EXPECT_GE(r.score, prev_score) << "x=" << x;
    EXPECT_GE(r.cells, prev_cells) << "x=" << x;
    prev_score = r.score;
    prev_cells = r.cells;
  }
}

TEST(XDrop, NoisyOverlapStillExtendsFar) {
  dibella::util::Xoshiro256 rng(4);
  da::Scoring sc;
  std::string a = random_dna(rng, 2000);
  std::string b = mutate(a, 0.12, rng);  // PacBio-like noise
  auto r = da::xdrop_extend(a, b, sc, 25);
  // Extension should cross most of the homologous region.
  EXPECT_GT(r.ext_a, 1000u);
  EXPECT_GT(r.score, 200);
}

TEST(AlignFromSeed, RecoversFullOverlapOnCleanReads) {
  dibella::util::Xoshiro256 rng(5);
  std::string genome = random_dna(rng, 3000);
  // Reads overlap on genome [1000, 2000).
  std::string a = genome.substr(0, 2000);
  std::string b = genome.substr(1000, 2000);
  // Shared seed: genome position 1500 = a pos 1500 = b pos 500; k = 17.
  auto sa = da::align_from_seed(a, b, 1500, 500, 17, da::Scoring{}, 50);
  EXPECT_EQ(sa.score, 1000);  // perfect 1000-base overlap
  EXPECT_EQ(sa.a_begin, 1000u);
  EXPECT_EQ(sa.a_end, 2000u);
  EXPECT_EQ(sa.b_begin, 0u);
  EXPECT_EQ(sa.b_end, 1000u);
}

TEST(AlignFromSeed, SeedAtSequenceEdges) {
  da::Scoring sc;
  std::string s = "ACGTACGTACGTACGTACGTA";
  auto left_edge = da::align_from_seed(s, s, 0, 0, 4, sc, 10);
  EXPECT_EQ(left_edge.score, static_cast<int>(s.size()));
  auto right_edge =
      da::align_from_seed(s, s, s.size() - 4, s.size() - 4, 4, sc, 10);
  EXPECT_EQ(right_edge.score, static_cast<int>(s.size()));
  EXPECT_THROW(da::align_from_seed(s, s, s.size() - 3, 0, 4, sc, 10), dibella::Error);
}

TEST(SmithWaterman, TextbookExamples) {
  da::Scoring sc;
  auto r = da::ref::smith_waterman("ACGT", "ACGT", sc);
  EXPECT_EQ(r.score, 4);
  EXPECT_EQ(r.a_begin, 0u);
  EXPECT_EQ(r.a_end, 4u);
  // Local alignment finds the embedded common substring.
  r = da::ref::smith_waterman("TTTTACGTACGTTTTT", "GGGGACGTACGGGG", sc);
  EXPECT_GE(r.score, 7);  // ACGTACG common
  // Empty inputs.
  r = da::ref::smith_waterman("", "ACGT", sc);
  EXPECT_EQ(r.score, 0);
}

TEST(SmithWaterman, TracebackSpansAreConsistent) {
  dibella::util::Xoshiro256 rng(6);
  da::Scoring sc;
  for (int trial = 0; trial < 10; ++trial) {
    std::string a = random_dna(rng, 60);
    std::string b = mutate(a, 0.1, rng);
    auto r = da::ref::smith_waterman(a, b, sc);
    EXPECT_LE(r.a_begin, r.a_end);
    EXPECT_LE(r.b_begin, r.b_end);
    EXPECT_LE(r.a_end, a.size());
    EXPECT_LE(r.b_end, b.size());
    // The aligned span's score can't exceed match * span length.
    u64 span = std::max(r.a_end - r.a_begin, r.b_end - r.b_begin);
    EXPECT_LE(r.score, static_cast<int>(span) * sc.match);
    EXPECT_GT(r.score, 0);
  }
}

TEST(SmithWaterman, LocalBeatsExtensionScore) {
  // SW may skip noisy prefixes that extension alignment must pay for, so
  // SW's local optimum >= any extension score anchored inside the match.
  dibella::util::Xoshiro256 rng(7);
  da::Scoring sc;
  std::string core = random_dna(rng, 100);
  std::string a = random_dna(rng, 30) + core;
  std::string b = random_dna(rng, 25) + core;
  auto sw = da::ref::smith_waterman(a, b, sc);
  auto ext = da::xdrop_extend(a, b, sc, 1'000'000);
  EXPECT_GE(sw.score, ext.score);
  EXPECT_GE(sw.score, 100);  // finds the planted core
}

TEST(BandedSmithWaterman, WideBandEqualsFull) {
  dibella::util::Xoshiro256 rng(8);
  da::Scoring sc;
  for (int trial = 0; trial < 8; ++trial) {
    std::string a = random_dna(rng, 50 + rng.uniform_below(30));
    std::string b = mutate(a, 0.15, rng);
    auto full = da::ref::smith_waterman(a, b, sc);
    auto banded = da::ref::banded_smith_waterman(
        a, b, sc, static_cast<dibella::i64>(a.size() + b.size()));
    EXPECT_EQ(banded.score, full.score) << trial;
  }
}

TEST(BandedSmithWaterman, NarrowBandBoundsWorkAndScore) {
  dibella::util::Xoshiro256 rng(9);
  da::Scoring sc;
  std::string a = random_dna(rng, 500);
  std::string b = mutate(a, 0.1, rng);
  auto full = da::ref::smith_waterman(a, b, sc);
  auto banded = da::ref::banded_smith_waterman(a, b, sc, 32);
  EXPECT_LE(banded.score, full.score);
  EXPECT_LT(banded.cells, full.cells / 3);  // linear-in-L work (§2)
  // Homologous pair with mostly diagonal alignment: a modest band loses
  // little score.
  EXPECT_GT(banded.score, full.score / 2);
}

TEST(BandedSmithWaterman, RejectsNegativeBand) {
  EXPECT_THROW(da::ref::banded_smith_waterman("AC", "AC", da::Scoring{}, -1), dibella::Error);
}

TEST(Alignment, ReverseComplementOverlapViaManualFrames) {
  // A overlaps rc(B): aligning a against revcomp(b) from a correctly-mapped
  // seed recovers the overlap — the orientation logic the alignment stage
  // implements.
  dibella::util::Xoshiro256 rng(10);
  std::string genome = random_dna(rng, 2500);
  std::string a = genome.substr(0, 1500);
  std::string b = dibella::kmer::reverse_complement(genome.substr(800, 1500));
  const int k = 17;
  // Seed in genome coords at 1000: a pos 1000; in b (rc frame) the window
  // starts at len - k - (1000 - 800) = 1500 - 17 - 200.
  std::string b_rc = dibella::kmer::reverse_complement(b);  // = genome.substr(800,1500)
  u64 pos_b_in_rc_frame = 1000 - 800;
  auto sa = da::align_from_seed(a, b_rc, 1000, pos_b_in_rc_frame, k, da::Scoring{}, 50);
  EXPECT_EQ(sa.score, 700);  // genome [800, 1500) common
  EXPECT_EQ(sa.a_begin, 800u);
  EXPECT_EQ(sa.a_end, 1500u);
}
