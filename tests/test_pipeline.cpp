// Integration tests for the full diBELLA pipeline: end-to-end behaviour,
// determinism, rank-count invariance, recall against ground truth, counter
// conservation, cost-model evaluation, and PAF output.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "comm/world.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "netsim/platform.hpp"
#include "simgen/presets.hpp"

#include "fixed_costs.hpp"

namespace dc = dibella::core;
using dibella::u32;
using dibella::u64;

namespace {

dc::PipelineConfig tiny_config() {
  dc::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = 0.12;  // matches tiny_test preset
  cfg.assumed_coverage = 20.0;
  cfg.batch_kmers = 50'000;
  return cfg;
}

struct PairKey {
  u64 a, b;
  bool operator<(const PairKey& o) const { return a != o.a ? a < o.a : b < o.b; }
};

}  // namespace

TEST(Pipeline, EndToEndProducesValidAlignments) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::comm::World world(4);
  auto out = run_pipeline(world, sim.reads, tiny_config());
  const auto records = out.merged_alignments();

  ASSERT_GT(records.size(), 50u);
  std::set<std::pair<u64, u64>> seen;
  for (const auto& rec : records) {
    EXPECT_LT(rec.rid_a, rec.rid_b);
    EXPECT_TRUE(seen.insert({rec.rid_a, rec.rid_b}).second) << "duplicate pair";
    const auto& a = sim.reads[static_cast<std::size_t>(rec.rid_a)];
    const auto& b = sim.reads[static_cast<std::size_t>(rec.rid_b)];
    EXPECT_LE(rec.a_end, a.seq.size());
    EXPECT_LE(rec.b_end, b.seq.size());
    EXPECT_LT(rec.a_begin, rec.a_end);
    EXPECT_LT(rec.b_begin, rec.b_end);
    // Every reported alignment contains its seed: score >= k * match.
    EXPECT_GE(rec.score, 17);
    EXPECT_GE(rec.seeds_explored, 1u);
  }
  // Counter coherence.
  EXPECT_EQ(out.counters.read_pairs, out.counters.pairs_aligned);
  EXPECT_EQ(out.counters.alignments_reported, records.size());
  EXPECT_GT(out.counters.retained_kmers, 0u);
  EXPECT_GT(out.counters.kmers_parsed, out.counters.retained_kmers);
  // One-seed policy: one extension per pair.
  EXPECT_EQ(out.counters.alignments_computed, out.counters.pairs_aligned);
  EXPECT_EQ(out.counters.seeds_after_filter, out.counters.read_pairs);
}

TEST(Pipeline, OutputIndependentOfRankCount) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(3));
  auto cfg = tiny_config();

  dibella::comm::World w1(1), w6(6);
  auto out1 = run_pipeline(w1, sim.reads, cfg);
  const auto out1_records = out1.merged_alignments();
  auto out6 = run_pipeline(w6, sim.reads, cfg);
  const auto out6_records = out6.merged_alignments();

  ASSERT_EQ(out1_records.size(), out6_records.size());
  for (std::size_t i = 0; i < out1_records.size(); ++i) {
    const auto& x = out1_records[i];
    const auto& y = out6_records[i];
    EXPECT_EQ(x.rid_a, y.rid_a);
    EXPECT_EQ(x.rid_b, y.rid_b);
    EXPECT_EQ(x.score, y.score);
    EXPECT_EQ(x.a_begin, y.a_begin);
    EXPECT_EQ(x.a_end, y.a_end);
    EXPECT_EQ(x.b_begin, y.b_begin);
    EXPECT_EQ(x.b_end, y.b_end);
    EXPECT_EQ(x.same_orientation, y.same_orientation);
  }
  EXPECT_EQ(out1.counters.retained_kmers, out6.counters.retained_kmers);
  EXPECT_EQ(out1.counters.read_pairs, out6.counters.read_pairs);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(17));
  auto cfg = tiny_config();
  dibella::comm::World world(3);
  auto a = run_pipeline(world, sim.reads, cfg);
  const auto a_records = a.merged_alignments();
  auto b = run_pipeline(world, sim.reads, cfg);
  const auto b_records = b.merged_alignments();
  ASSERT_EQ(a_records.size(), b_records.size());
  for (std::size_t i = 0; i < a_records.size(); ++i) {
    EXPECT_EQ(a_records[i].score, b_records[i].score);
    EXPECT_EQ(a_records[i].rid_a, b_records[i].rid_a);
  }
}

TEST(Pipeline, RecallAgainstGroundTruth) {
  // The pipeline must rediscover the overlaps the simulator planted. With
  // 12% error and k=17 BELLA's model puts detection probability near 1 for
  // long overlaps (test_bella), so missing many would be a bug. A repeat-
  // free genome keeps the precision check meaningful: with repeats,
  // cross-copy alignments are genuinely similar sequences that do not
  // intersect positionally, and would be miscounted as false positives.
  auto preset = dibella::simgen::tiny_test(29);
  preset.genome.repeat_families = 0;
  auto sim = make_dataset(preset);
  dibella::simgen::TruthOracle oracle(sim.truth, /*min_overlap=*/800);
  auto true_pairs = oracle.all_true_pairs();
  ASSERT_GT(true_pairs.size(), 50u);

  auto cfg = tiny_config();
  cfg.seed_filter = dibella::overlap::SeedFilterConfig::spaced(500);
  dibella::comm::World world(4);
  auto out = run_pipeline(world, sim.reads, cfg);

  std::set<std::pair<u64, u64>> found;
  for (const auto& rec : out.merged_alignments()) {
    if (rec.score >= 100) found.insert({rec.rid_a, rec.rid_b});
  }
  u64 hit = 0;
  for (auto& p : true_pairs) {
    if (found.count(p)) ++hit;
  }
  double recall = static_cast<double>(hit) / static_cast<double>(true_pairs.size());
  EXPECT_GT(recall, 0.75) << "recall of " << true_pairs.size() << " true overlaps";

  // Precision against a loose truth (any genomic intersection at all):
  // most reported strong alignments correspond to genuine overlaps.
  dibella::simgen::TruthOracle loose(sim.truth, 1);
  u64 good = 0;
  for (auto& p : found) {
    if (loose.truly_overlaps(p.first, p.second)) ++good;
  }
  EXPECT_GT(static_cast<double>(good) / static_cast<double>(found.size()), 0.95);
}

TEST(Pipeline, SeedPolicyIntensityOrdering) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(31));
  auto base = tiny_config();
  base.chain = false;  // the sweep measures exhaustive per-seed extension work;
                       // chaining collapses every policy to one extension/pair
  dibella::comm::World world(2);

  auto cfg_one = base;
  cfg_one.seed_filter = dibella::overlap::SeedFilterConfig::one_seed();
  auto cfg_1k = base;
  cfg_1k.seed_filter = dibella::overlap::SeedFilterConfig::spaced(1000);
  auto cfg_all = base;
  cfg_all.seed_filter = dibella::overlap::SeedFilterConfig::all_seeds(base.k);

  auto one = run_pipeline(world, sim.reads, cfg_one);
  auto spaced = run_pipeline(world, sim.reads, cfg_1k);
  auto all = run_pipeline(world, sim.reads, cfg_all);

  // Same pair universe, growing alignment work — the paper's three
  // computational-intensity settings (§5).
  EXPECT_EQ(one.counters.read_pairs, all.counters.read_pairs);
  EXPECT_LE(one.counters.alignments_computed, spaced.counters.alignments_computed);
  EXPECT_LE(spaced.counters.alignments_computed, all.counters.alignments_computed);
  EXPECT_LT(one.counters.dp_cells, all.counters.dp_cells);
}

TEST(Pipeline, CostModelEvaluationHasAllStages) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(37));
  dibella::comm::World world(8);
  auto out = run_pipeline(world, sim.reads, tiny_config());

  auto report = out.evaluate(dibella::netsim::cori(), dibella::netsim::Topology{2, 4},
                             fixed_kernel_costs());
  for (const char* stage : {"bloom", "ht", "overlap", "align"}) {
    ASSERT_TRUE(report.has_stage(stage)) << stage;
    EXPECT_GT(report.stage(stage).compute_virtual, 0.0) << stage;
  }
  EXPECT_GT(report.stage("bloom").exchange_virtual, 0.0);
  EXPECT_GT(report.total_virtual(), 0.0);
  // Stage 2 moves ~2.5x the bytes of stage 1 (k-mer + rid + pos vs k-mer).
  double ratio = static_cast<double>(report.stage("ht").exchange_bytes) /
                 static_cast<double>(report.stage("bloom").exchange_bytes);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 4.0);
  // Per-rank alignment times exist for the Fig 8 imbalance metric.
  ASSERT_TRUE(report.per_rank_stage_seconds.count("align"));
  EXPECT_EQ(report.per_rank_stage_seconds.at("align").size(), 8u);
}

TEST(Pipeline, FixedCostsPriceARepeatedRunIdentically) {
  // A trace holds exact work units, so one config run twice and priced with
  // one KernelCosts value gives identical modeled reports, whatever the rank
  // count, schedule or block count.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  const auto costs = fixed_kernel_costs();
  for (int ranks : {1, 3, 4}) {
    for (bool overlap_comm : {true, false}) {
      for (u32 blocks : {1u, 2u}) {
        const std::string where = "ranks=" + std::to_string(ranks) +
                                  " overlap_comm=" + std::to_string(overlap_comm) +
                                  " blocks=" + std::to_string(blocks);
        auto cfg = tiny_config();
        cfg.overlap_comm = overlap_comm;
        cfg.blocks = blocks;
        const auto cori = dibella::netsim::cori();
        const dibella::netsim::Topology topo{1, ranks};
        dibella::comm::World world(ranks);
        const auto first = run_pipeline(world, sim.reads, cfg).evaluate(cori, topo, costs);
        const auto second = run_pipeline(world, sim.reads, cfg).evaluate(cori, topo, costs);
        EXPECT_GT(first.total_compute_virtual(), 0.0) << where;
        EXPECT_TRUE(first == second) << where;
      }
    }
  }
}

TEST(Pipeline, MoreNodesRaiseExchangeCost) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(41));
  dibella::comm::World world(8);
  auto out = run_pipeline(world, sim.reads, tiny_config());
  const auto costs = fixed_kernel_costs();
  const auto cori = dibella::netsim::cori();
  auto one_node = out.evaluate(cori, dibella::netsim::Topology{1, 8}, costs);
  auto eight_nodes = out.evaluate(cori, dibella::netsim::Topology{8, 1}, costs);
  EXPECT_GT(eight_nodes.total_exchange_virtual(), 2.0 * one_node.total_exchange_virtual());
}

TEST(Pipeline, AutoMaxFrequencyFromModel) {
  auto cfg = tiny_config();
  cfg.max_kmer_count = 0;
  EXPECT_GE(cfg.resolved_max_kmer_count(), 2u);
  cfg.max_kmer_count = 5;
  EXPECT_EQ(cfg.resolved_max_kmer_count(), 5u);
}

TEST(Pipeline, PafOutputWellFormed) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(43));
  dibella::comm::World world(2);
  auto out = run_pipeline(world, sim.reads, tiny_config());
  const auto records = out.merged_alignments();
  ASSERT_FALSE(records.empty());

  std::ostringstream os;
  dc::write_paf(os, records, sim.reads);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    // 12 standard fields + the ol:i: / tp:A: string-graph tags.
    std::size_t tabs = static_cast<std::size_t>(std::count(line.begin(), line.end(), '\t'));
    EXPECT_EQ(tabs, 13u) << line;
    EXPECT_NE(line.find("\tol:i:"), std::string::npos) << line;
    EXPECT_NE(line.find("\ttp:A:"), std::string::npos) << line;
    EXPECT_TRUE(line.find('+') != std::string::npos || line.find('-') != std::string::npos);
  }
  EXPECT_EQ(lines, records.size());
}

TEST(Pipeline, SingleRankWorld) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(47));
  dibella::comm::World world(1);
  auto out = run_pipeline(world, sim.reads, tiny_config());
  EXPECT_GT(out.merged_alignments().size(), 0u);
  EXPECT_EQ(out.counters.reads_exchanged, 0u);  // everything is local
}

TEST(Pipeline, OverlappedScheduleBitwiseIdenticalToBlocking) {
  // The tentpole contract: the nonblocking Exchanger schedule and the
  // bulk-synchronous schedule produce byte-for-byte the same alignments and
  // the same counters (small batches force many in-flight batches per stage).
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(53));
  auto cfg = tiny_config();
  cfg.batch_kmers = 5'000;  // many batches -> real overlap in stages 1/2
  dibella::comm::World world(4);

  cfg.overlap_comm = true;
  auto on = run_pipeline(world, sim.reads, cfg);
  const auto on_records = on.merged_alignments();
  cfg.overlap_comm = false;
  auto off = run_pipeline(world, sim.reads, cfg);
  const auto off_records = off.merged_alignments();

  ASSERT_EQ(on_records.size(), off_records.size());
  for (std::size_t i = 0; i < on_records.size(); ++i) {
    const auto& x = on_records[i];
    const auto& y = off_records[i];
    EXPECT_EQ(x.rid_a, y.rid_a);
    EXPECT_EQ(x.rid_b, y.rid_b);
    EXPECT_EQ(x.score, y.score);
    EXPECT_EQ(x.a_begin, y.a_begin);
    EXPECT_EQ(x.a_end, y.a_end);
    EXPECT_EQ(x.b_begin, y.b_begin);
    EXPECT_EQ(x.b_end, y.b_end);
    EXPECT_EQ(x.same_orientation, y.same_orientation);
  }
  // Every aggregated counter matches, not just the rank-independent ones —
  // the schedules do identical work in identical order per rank.
  EXPECT_EQ(on.counters.kmers_parsed, off.counters.kmers_parsed);
  EXPECT_EQ(on.counters.candidate_keys, off.counters.candidate_keys);
  EXPECT_EQ(on.counters.retained_kmers, off.counters.retained_kmers);
  EXPECT_EQ(on.counters.purged_keys, off.counters.purged_keys);
  EXPECT_EQ(on.counters.overlap_tasks, off.counters.overlap_tasks);
  EXPECT_EQ(on.counters.read_pairs, off.counters.read_pairs);
  EXPECT_EQ(on.counters.seeds_after_filter, off.counters.seeds_after_filter);
  EXPECT_EQ(on.counters.reads_exchanged, off.counters.reads_exchanged);
  EXPECT_EQ(on.counters.read_bytes_exchanged, off.counters.read_bytes_exchanged);
  EXPECT_EQ(on.counters.pairs_aligned, off.counters.pairs_aligned);
  EXPECT_EQ(on.counters.alignments_computed, off.counters.alignments_computed);
  EXPECT_EQ(on.counters.dp_cells, off.counters.dp_cells);
  EXPECT_EQ(on.counters.alignments_reported, off.counters.alignments_reported);
}

TEST(Pipeline, BlockingScheduleIndependentOfRankCount) {
  // The default schedule's rank invariance is pinned by
  // OutputIndependentOfRankCount; the blocking fallback must keep it too.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(3));
  auto cfg = tiny_config();
  cfg.overlap_comm = false;

  dibella::comm::World w1(1), w5(5);
  auto out1 = run_pipeline(w1, sim.reads, cfg);
  const auto out1_records = out1.merged_alignments();
  auto out5 = run_pipeline(w5, sim.reads, cfg);
  const auto out5_records = out5.merged_alignments();
  ASSERT_EQ(out1_records.size(), out5_records.size());
  for (std::size_t i = 0; i < out1_records.size(); ++i) {
    EXPECT_EQ(out1_records[i].score, out5_records[i].score);
    EXPECT_EQ(out1_records[i].rid_a, out5_records[i].rid_a);
    EXPECT_EQ(out1_records[i].rid_b, out5_records[i].rid_b);
  }
}

TEST(Pipeline, OverlappedScheduleHidesExchangeTime) {
  // With multiple in-flight batches, part of the modeled exchange time must
  // be hidden behind compute, and the exposed total must shrink relative to
  // the blocking schedule (same workload, same cost model).
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(59));
  auto cfg = tiny_config();
  cfg.batch_kmers = 5'000;
  dibella::comm::World world(4);

  cfg.overlap_comm = true;
  auto on = run_pipeline(world, sim.reads, cfg);
  cfg.overlap_comm = false;
  auto off = run_pipeline(world, sim.reads, cfg);

  auto topo = dibella::netsim::Topology{2, 2};
  auto rep_on = on.evaluate(dibella::netsim::cori(), topo, fixed_kernel_costs());
  auto rep_off = off.evaluate(dibella::netsim::cori(), topo, fixed_kernel_costs());

  // Blocking: nothing is hidden.
  EXPECT_DOUBLE_EQ(rep_off.total_exchange_exposed_virtual(),
                   rep_off.total_exchange_virtual());
  // Overlapped: a nonzero hidden share, and exposed <= full for every stage.
  EXPECT_GT(rep_on.total_exchange_virtual(),
            rep_on.total_exchange_exposed_virtual());
  for (const auto& name : rep_on.stage_order) {
    const auto& st = rep_on.stage(name);
    EXPECT_LE(st.exchange_exposed_virtual, st.exchange_virtual + 1e-12) << name;
    EXPECT_GE(st.exchange_exposed_virtual, 0.0) << name;
  }
  // The overlapped schedule's exposed exchange beats the blocking schedule's.
  EXPECT_LT(rep_on.total_exchange_exposed_virtual(),
            rep_off.total_exchange_exposed_virtual());
  // The schedule moves only when each exchange runs, never what it carries:
  // every stage's wire bytes, rounds and full modeled exchange time match.
  ASSERT_EQ(rep_on.stage_order, rep_off.stage_order);
  for (const auto& name : rep_on.stage_order) {
    const auto& st_on = rep_on.stage(name);
    const auto& st_off = rep_off.stage(name);
    EXPECT_EQ(st_on.exchange_bytes, st_off.exchange_bytes) << name;
    EXPECT_EQ(st_on.exchange_calls, st_off.exchange_calls) << name;
    EXPECT_DOUBLE_EQ(st_on.exchange_virtual, st_off.exchange_virtual) << name;
  }
}
