// Tests for the DALIGNER-like baseline: equivalence with the distributed
// pipeline (same filters, seeds, and kernel => identical alignments), and
// invariance under its block decomposition.

#include <gtest/gtest.h>

#include "baseline/daligner_like.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "simgen/presets.hpp"

namespace db = dibella::baseline;
using dibella::u32;
using dibella::u64;

namespace {

db::BaselineConfig baseline_config(u32 max_count) {
  db::BaselineConfig cfg;
  cfg.k = 17;
  cfg.max_count = max_count;
  return cfg;
}

void expect_same_alignments(const std::vector<dibella::align::AlignmentRecord>& x,
                            const std::vector<dibella::align::AlignmentRecord>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].rid_a, y[i].rid_a) << i;
    EXPECT_EQ(x[i].rid_b, y[i].rid_b) << i;
    EXPECT_EQ(x[i].score, y[i].score) << i;
    EXPECT_EQ(x[i].a_begin, y[i].a_begin) << i;
    EXPECT_EQ(x[i].b_end, y[i].b_end) << i;
    EXPECT_EQ(x[i].same_orientation, y[i].same_orientation) << i;
  }
}

}  // namespace

TEST(Baseline, MatchesDistributedPipelineExactly) {
  // Same retained-k-mer semantics, same seed policy, same kernel: the
  // sort-merge baseline and the distributed hash pipeline must produce the
  // SAME alignments. This pins down that Table 2 compares two
  // implementations of the same computation.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::core::PipelineConfig pcfg;
  pcfg.k = 17;
  pcfg.assumed_error_rate = 0.12;
  pcfg.assumed_coverage = 20.0;
  const u32 m = pcfg.resolved_max_kmer_count();

  dibella::comm::World world(3);
  auto pipeline_out = run_pipeline(world, sim.reads, pcfg);

  auto bres = db::run_daligner_like(sim.reads, baseline_config(m));
  expect_same_alignments(pipeline_out.merged_alignments(), bres.alignments);
  EXPECT_EQ(bres.read_pairs, pipeline_out.counters.read_pairs);
}

TEST(Baseline, BlockDecompositionInvariant) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(53));
  auto whole = db::run_daligner_like(sim.reads, baseline_config(8));
  auto cfg_blocked = baseline_config(8);
  cfg_blocked.block_reads = 37;  // awkward block size on purpose
  auto blocked = db::run_daligner_like(sim.reads, cfg_blocked);
  expect_same_alignments(whole.alignments, blocked.alignments);
  EXPECT_EQ(whole.read_pairs, blocked.read_pairs);
  // Block decomposition re-sorts shared tuples across block pairs: more
  // total sorting work, the §11 criticism of the approach.
  EXPECT_GT(blocked.tuples_sorted, whole.tuples_sorted);
}

TEST(Baseline, TimersAndCountersPopulated) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(59));
  auto res = db::run_daligner_like(sim.reads, baseline_config(8));
  EXPECT_GT(res.tuples_sorted, 0u);
  EXPECT_GT(res.read_pairs, 0u);
  EXPECT_EQ(res.alignments_computed, res.read_pairs);  // one-seed default
  EXPECT_GE(res.seconds_sort, 0.0);
  EXPECT_GE(res.seconds_align, 0.0);
  EXPECT_FALSE(res.alignments.empty());
}

TEST(Baseline, EmptyAndDegenerateInputs) {
  auto res = db::run_daligner_like({}, baseline_config(8));
  EXPECT_TRUE(res.alignments.empty());
  EXPECT_EQ(res.read_pairs, 0u);
  // Reads shorter than k contribute nothing.
  std::vector<dibella::io::Read> shorts;
  for (u64 g = 0; g < 5; ++g) {
    // std::string("s").append(...) sidesteps GCC 12's -Wrestrict false
    // positive (PR105329) on `const char* + std::string&&` at -O3.
    shorts.push_back(
        dibella::io::Read{g, std::string("s").append(std::to_string(g)), "ACGT", ""});
  }
  res = db::run_daligner_like(shorts, baseline_config(8));
  EXPECT_TRUE(res.alignments.empty());
}
