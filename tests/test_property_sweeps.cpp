// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P): the
// stage invariants of the paper's §6-7 checked across the parameter ranges the
// paper's methods must hold over — k, rank counts, error rates, Bloom FPR
// targets, seed-policy distances, and x-drop budgets.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "align/smith_waterman.hpp"
#include "align/xdrop.hpp"
#include "bella/model.hpp"
#include "bloom/bloom_filter.hpp"
#include "comm/communicator.hpp"
#include "comm/exchanger.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "eval/report.hpp"
#include "kmer/dna.hpp"
#include "kmer/parser.hpp"
#include "overlap/seed_filter.hpp"
#include "simgen/presets.hpp"
#include "simgen/read_sim.hpp"
#include "util/random.hpp"

using dibella::i64;
using dibella::u32;
using dibella::u64;

namespace {

std::string random_dna(dibella::util::Xoshiro256& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

std::string noisy_copy(const std::string& s, double rate,
                       dibella::util::Xoshiro256& rng) {
  std::string out;
  for (char c : s) {
    if (rng.bernoulli(rate)) {
      double roll = rng.uniform();
      if (roll < 0.4) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
      } else if (roll < 0.7) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

// --- k sweep: rolling parser equals the naive window scan for every k ------

class ParserKSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParserKSweep, RollingParserMatchesNaive) {
  const int k = GetParam();
  dibella::util::Xoshiro256 rng(static_cast<u64>(k) * 101);
  std::string seq = random_dna(rng, 400);
  // Inject a couple of invalid characters to exercise window resets.
  seq[57] = 'N';
  seq[210] = 'n';
  std::size_t idx = 0;
  dibella::kmer::for_each_canonical_kmer(
      seq, k, [&](const dibella::kmer::Occurrence& occ) {
        std::string window = seq.substr(occ.pos, static_cast<std::size_t>(k));
        ASSERT_TRUE(dibella::kmer::is_valid_dna(window));
        std::string rc = dibella::kmer::reverse_complement(window);
        EXPECT_EQ(occ.kmer.to_string(k), std::min(window, rc));
        ++idx;
      });
  EXPECT_GT(idx, 300u - static_cast<std::size_t>(2 * k));
}

INSTANTIATE_TEST_SUITE_P(AllK, ParserKSweep,
                         ::testing::Values(3, 5, 11, 15, 17, 21, 25, 31));

// --- rank sweep: pipeline output invariant in P -----------------------------

class PipelineRankSweep : public ::testing::TestWithParam<int> {
 protected:
  static const dibella::core::PipelineOutput& reference() {
    static dibella::core::PipelineOutput ref = [] {
      dibella::comm::World world(1);
      return run_pipeline(world, reads(), config());
    }();
    return ref;
  }
  static const std::vector<dibella::io::Read>& reads() {
    static auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(71));
    return sim.reads;
  }
  static dibella::core::PipelineConfig config() {
    dibella::core::PipelineConfig cfg;
    cfg.assumed_error_rate = 0.12;
    cfg.assumed_coverage = 20.0;
    return cfg;
  }
};

TEST_P(PipelineRankSweep, AlignmentsIdenticalToSingleRank) {
  const int P = GetParam();
  dibella::comm::World world(P);
  auto out = run_pipeline(world, reads(), config());
  const auto records = out.merged_alignments();
  const auto& ref = reference();
  const auto ref_records = ref.merged_alignments();
  ASSERT_EQ(records.size(), ref_records.size()) << "P=" << P;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].rid_a, ref_records[i].rid_a);
    EXPECT_EQ(records[i].rid_b, ref_records[i].rid_b);
    EXPECT_EQ(records[i].score, ref_records[i].score);
  }
  EXPECT_EQ(out.counters.retained_kmers, ref.counters.retained_kmers);
  EXPECT_EQ(out.counters.read_pairs, ref.counters.read_pairs);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PipelineRankSweep,
                         ::testing::Values(2, 3, 5, 7, 12));

// --- eval sweep: quality is schedule-independent ----------------------------
//
// Across a preset x rank-count x overlap-comm grid, recall/precision (and
// the whole eval report, histograms included) must be identical on every
// configuration — quality mirrors the PAF's bitwise pins: the evaluation is
// a pure function of the merged alignments and the truth, and those are
// schedule-invariant.

class EvalGridSweep
    : public ::testing::TestWithParam<std::tuple<u64 /*preset seed*/, int /*ranks*/,
                                                 bool /*overlap_comm*/>> {
 protected:
  struct Dataset {
    dibella::simgen::SimulatedReads sim;
    std::shared_ptr<const dibella::io::TruthTable> truth;
    std::string reference_tsv;  // from 1 rank, overlap-comm on
  };

  static dibella::core::PipelineConfig eval_config() {
    dibella::core::PipelineConfig cfg;
    cfg.assumed_error_rate = 0.12;
    cfg.assumed_coverage = 20.0;
    cfg.stage5 = true;
    cfg.eval = true;
    cfg.eval_min_overlap = 500;
    return cfg;
  }

  static std::string eval_tsv(const dibella::core::PipelineOutput& out) {
    std::ostringstream os;
    dibella::eval::write_eval_tsv(os, out.eval);
    return os.str();
  }

  static const Dataset& dataset(u64 seed) {
    static std::map<u64, Dataset> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
      Dataset d;
      d.sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(seed));
      d.truth = std::make_shared<const dibella::io::TruthTable>(
          dibella::simgen::truth_table(d.sim));
      dibella::comm::World world(1);
      auto ref = run_pipeline(world, d.sim.reads, eval_config(), d.truth);
      d.reference_tsv = eval_tsv(ref);
      it = cache.emplace(seed, std::move(d)).first;
    }
    return it->second;
  }
};

TEST_P(EvalGridSweep, RecallPrecisionIdenticalOnEveryConfiguration) {
  const auto [seed, ranks, overlap_comm] = GetParam();
  const Dataset& d = dataset(seed);
  auto cfg = eval_config();
  cfg.overlap_comm = overlap_comm;
  dibella::comm::World world(ranks);
  auto out = run_pipeline(world, d.sim.reads, cfg, d.truth);
  ASSERT_TRUE(out.eval_ran);
  EXPECT_GT(out.eval.overlap.true_positives, 0u);
  EXPECT_EQ(eval_tsv(out), d.reference_tsv)
      << "seed=" << seed << " ranks=" << ranks << " overlap_comm=" << overlap_comm;
}

INSTANTIATE_TEST_SUITE_P(PresetRanksSchedule, EvalGridSweep,
                         ::testing::Combine(::testing::Values(u64{42}, u64{7}),
                                            ::testing::Values(1, 3, 5),
                                            ::testing::Bool()));

// --- minimizer density sweep -------------------------------------------------
// At every sketch density, eval.tsv is a pure function of (reads, truth,
// config): byte-identical across rank counts and communication schedules.
// The reference for each (seed, w) cell comes from 1 rank, overlap-comm on.

class SketchDensitySweep
    : public ::testing::TestWithParam<std::tuple<u32 /*minimizer w*/,
                                                 u64 /*preset seed*/, int /*ranks*/,
                                                 bool /*overlap_comm*/>> {
 protected:
  struct Dataset {
    dibella::simgen::SimulatedReads sim;
    std::shared_ptr<const dibella::io::TruthTable> truth;
  };

  static dibella::core::PipelineConfig eval_config(u32 w) {
    dibella::core::PipelineConfig cfg;
    cfg.assumed_error_rate = 0.12;
    cfg.assumed_coverage = 20.0;
    cfg.minimizer_w = w;
    cfg.stage5 = true;
    cfg.eval = true;
    cfg.eval_min_overlap = 500;
    return cfg;
  }

  static std::string eval_tsv(const dibella::core::PipelineOutput& out) {
    std::ostringstream os;
    dibella::eval::write_eval_tsv(os, out.eval);
    return os.str();
  }

  static const Dataset& dataset(u64 seed) {
    static std::map<u64, Dataset> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
      Dataset d;
      d.sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(seed));
      d.truth = std::make_shared<const dibella::io::TruthTable>(
          dibella::simgen::truth_table(d.sim));
      it = cache.emplace(seed, std::move(d)).first;
    }
    return it->second;
  }

  static const std::string& reference_tsv(u64 seed, u32 w) {
    static std::map<std::pair<u64, u32>, std::string> cache;
    auto key = std::make_pair(seed, w);
    auto it = cache.find(key);
    if (it == cache.end()) {
      const Dataset& d = dataset(seed);
      dibella::comm::World world(1);
      auto ref = run_pipeline(world, d.sim.reads, eval_config(w), d.truth);
      it = cache.emplace(key, eval_tsv(ref)).first;
    }
    return it->second;
  }
};

TEST_P(SketchDensitySweep, EvalByteIdenticalAtEveryDensity) {
  const auto [w, seed, ranks, overlap_comm] = GetParam();
  const Dataset& d = dataset(seed);
  auto cfg = eval_config(w);
  cfg.overlap_comm = overlap_comm;
  dibella::comm::World world(ranks);
  auto out = run_pipeline(world, d.sim.reads, cfg, d.truth);
  ASSERT_TRUE(out.eval_ran);
  EXPECT_GT(out.eval.overlap.true_positives, 0u);
  EXPECT_EQ(eval_tsv(out), reference_tsv(seed, w))
      << "w=" << w << " seed=" << seed << " ranks=" << ranks
      << " overlap_comm=" << overlap_comm;
}

INSTANTIATE_TEST_SUITE_P(DensityRanksSchedule, SketchDensitySweep,
                         ::testing::Combine(::testing::Values(0u, 5u, 10u, 19u),
                                            ::testing::Values(u64{42}, u64{7}),
                                            ::testing::Values(1, 3, 5),
                                            ::testing::Bool()));

// The quality bar: at the default density (w = 10) overlap recall stays
// within one point of the dense pipeline under the standard >= 2000-base
// true-overlap definition (PipelineConfig's default; the paper's working
// notion of a real overlap). Pairs sharing that much sequence have enough
// correct shared windows that 1/w sampling keeps at least one; only the
// marginal short-overlap tail below the threshold thins out.
TEST(SketchDensity, DefaultDensityRecallWithinOnePointOfDense) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(42));
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  auto run_with = [&](u32 w) {
    dibella::core::PipelineConfig cfg;
    cfg.assumed_error_rate = 0.12;
    cfg.assumed_coverage = 20.0;
    cfg.minimizer_w = w;
    cfg.eval = true;
    dibella::comm::World world(2);
    return run_pipeline(world, sim.reads, cfg, truth);
  };
  auto dense = run_with(0);
  auto sketched = run_with(10);
  ASSERT_TRUE(dense.eval_ran);
  ASSERT_TRUE(sketched.eval_ran);
  ASSERT_GT(dense.eval.overlap.true_pairs, 100u);  // not a vacuous truth set
  EXPECT_GE(sketched.eval.overlap.recall(), dense.eval.overlap.recall() - 0.01)
      << "dense recall=" << dense.eval.overlap.recall()
      << " w=10 recall=" << sketched.eval.overlap.recall();
  // And it must actually sample: far fewer seed occurrences enter stage 1.
  EXPECT_LT(sketched.counters.sketch_seeds_kept * 3,
            dense.counters.sketch_seeds_kept);
}

// --- error-rate sweep: seed detection meets BELLA's model -------------------

class ErrorRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(ErrorRateSweep, SharedSeedDetectionMeetsModelPrediction) {
  const double e = GetParam();
  const int k = 17;
  const std::size_t overlap = 1500;
  dibella::util::Xoshiro256 rng(static_cast<u64>(e * 1000) + 3);
  int shared = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    // Two independently-noisy reads of the same template region.
    std::string tmpl = random_dna(rng, overlap);
    auto a = noisy_copy(tmpl, e, rng);
    auto b = noisy_copy(tmpl, e, rng);
    std::set<std::string> akmers;
    dibella::kmer::for_each_canonical_kmer(
        a, k, [&](const dibella::kmer::Occurrence& occ) {
          akmers.insert(occ.kmer.to_string(k));
        });
    bool found = false;
    dibella::kmer::for_each_canonical_kmer(
        b, k, [&](const dibella::kmer::Occurrence& occ) {
          if (akmers.count(occ.kmer.to_string(k))) found = true;
        });
    if (found) ++shared;
  }
  double measured = static_cast<double>(shared) / trials;
  double predicted = dibella::bella::p_shared_correct_kmer(e, k, overlap);
  // The model predicts *correct* shared k-mers; chance matches of erroneous
  // k-mers can only raise the measured rate, so the model is a lower bound
  // (allow 10% slack for the binomial noise of 60 trials).
  EXPECT_GE(measured, predicted - 0.10)
      << "e=" << e << " predicted=" << predicted << " measured=" << measured;
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, ErrorRateSweep,
                         ::testing::Values(0.0, 0.05, 0.10, 0.15, 0.20));

// --- Bloom FPR sweep ---------------------------------------------------------

class BloomFprSweep : public ::testing::TestWithParam<double> {};

TEST_P(BloomFprSweep, MeasuredFprTracksTarget) {
  const double target = GetParam();
  dibella::bloom::BloomFilter f(30'000, target);
  dibella::util::Xoshiro256 rng(17);
  for (int i = 0; i < 30'000; ++i) f.insert(rng.next(), rng.next());
  int fp = 0;
  const int probes = 40'000;
  for (int i = 0; i < probes; ++i) {
    if (f.contains(rng.next(), rng.next())) ++fp;
  }
  double measured = static_cast<double>(fp) / probes;
  EXPECT_LT(measured, 2.0 * target + 0.002) << "target=" << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, BloomFprSweep,
                         ::testing::Values(0.01, 0.05, 0.10, 0.20));

// --- seed-policy distance sweep ----------------------------------------------

class SeedDistanceSweep : public ::testing::TestWithParam<u32> {};

TEST_P(SeedDistanceSweep, SpacingAndCoverageProperties) {
  const u32 d = GetParam();
  dibella::util::Xoshiro256 rng(static_cast<u64>(d) + 5);
  std::vector<dibella::overlap::SeedPair> seeds;
  for (int i = 0; i < 300; ++i) {
    seeds.push_back({static_cast<u32>(rng.uniform_below(10'000)),
                     static_cast<u32>(rng.uniform_below(10'000)), 1});
  }
  auto out = filter_seeds(seeds, dibella::overlap::SeedFilterConfig::spaced(d));
  ASSERT_FALSE(out.empty());
  // Spacing invariant.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].pos_a - out[i - 1].pos_a, d);
  }
  // Greedy maximality: no accepted-seed gap admits a skipped seed at
  // distance >= d from both neighbours... equivalently, the count is at
  // least range/d can't be asserted for arbitrary input, but monotonicity
  // in d can: a looser spacing keeps at least as many seeds.
  if (d >= 2) {
    auto tighter = filter_seeds(seeds, dibella::overlap::SeedFilterConfig::spaced(d / 2));
    EXPECT_GE(tighter.size(), out.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, SeedDistanceSweep,
                         ::testing::Values(17u, 100u, 500u, 1000u, 5000u));

// --- x-drop budget sweep -----------------------------------------------------

class XdropBudgetSweep : public ::testing::TestWithParam<int> {};

TEST_P(XdropBudgetSweep, BoundedByExactOracleAndMonotone) {
  const int x = GetParam();
  dibella::util::Xoshiro256 rng(static_cast<u64>(x) * 7 + 1);
  dibella::align::Scoring sc;
  std::string a = random_dna(rng, 250);
  std::string b = noisy_copy(a, 0.15, rng);
  auto exact = dibella::align::xdrop_extend(a, b, sc, 1'000'000);
  auto got = dibella::align::xdrop_extend(a, b, sc, x);
  EXPECT_LE(got.score, exact.score);
  EXPECT_LE(got.cells, exact.cells);
  // A bigger budget never hurts.
  auto bigger = dibella::align::xdrop_extend(a, b, sc, 2 * x);
  EXPECT_GE(bigger.score, got.score);
}

INSTANTIATE_TEST_SUITE_P(Budgets, XdropBudgetSweep,
                         ::testing::Values(2, 5, 10, 25, 50, 200));

// --- collectives rank sweep ----------------------------------------------------

class CollectivesRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesRankSweep, RandomizedAlltoallvAndReductions) {
  const int P = GetParam();
  std::vector<std::vector<std::vector<u64>>> payload(
      static_cast<std::size_t>(P), std::vector<std::vector<u64>>(static_cast<std::size_t>(P)));
  dibella::util::Xoshiro256 rng(static_cast<u64>(P) * 13);
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      std::size_t n = rng.uniform_below(30);
      for (std::size_t i = 0; i < n; ++i) {
        payload[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)].push_back(rng.next());
      }
    }
  }
  dibella::comm::World world(P);
  world.run([&](dibella::comm::Communicator& comm) {
    // One Exchanger round carries the payloads and, piggybacked, the stop
    // vote: all_done() is the AND over every sender's done bit.
    dibella::comm::Exchanger ex(comm);
    for (int d = 0; d < P; ++d) {
      ex.post(d, payload[static_cast<std::size_t>(comm.rank())][static_cast<std::size_t>(d)]);
    }
    ex.flush_async(/*done=*/comm.rank() != P - 1);
    const dibella::comm::RecvBatch batch = ex.wait();
    for (int s = 0; s < P; ++s) {
      std::vector<u64> recv;
      batch.append_from(s, recv);
      EXPECT_EQ(recv,
                payload[static_cast<std::size_t>(s)][static_cast<std::size_t>(comm.rank())]);
    }
    EXPECT_FALSE(batch.all_done());
    ex.flush_async(/*done=*/true);
    EXPECT_TRUE(ex.wait().all_done());
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesRankSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 9, 16));

// --- reliable threshold sweep --------------------------------------------------

class CoverageSweep : public ::testing::TestWithParam<double> {};

TEST_P(CoverageSweep, ReliableThresholdScalesWithCoverage) {
  const double cov = GetParam();
  u32 m = dibella::bella::reliable_max_frequency(cov, 0.15, 17);
  EXPECT_GE(m, 2u);
  // m grows (weakly) with coverage and stays near the Poisson mean's tail:
  // lambda + generous margin.
  double lambda = cov * dibella::bella::p_clean_kmer(0.15, 17);
  EXPECT_LE(static_cast<double>(m), lambda + 12.0 * std::sqrt(lambda) + 4.0);
  if (cov >= 60.0) {
    EXPECT_GT(m, dibella::bella::reliable_max_frequency(cov / 4, 0.15, 17));
  }
}

INSTANTIATE_TEST_SUITE_P(Coverages, CoverageSweep,
                         ::testing::Values(10.0, 30.0, 60.0, 100.0, 200.0));
