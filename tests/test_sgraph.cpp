// Tests for the stage-5 string-graph subsystem (src/sgraph/): edge
// classification, unitig-extraction edge cases (chains, cycles, branches,
// tips, contained-only reads, self-overlaps), GFA emission, and the
// differential pinning the distributed transitive reduction bitwise against
// the sequential graph::OverlapGraph oracle across rank counts and
// communication schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "core/stage_context.hpp"
#include "graph/overlap_graph.hpp"
#include "sgraph/edge_class.hpp"
#include "sgraph/fused_frame.hpp"
#include "sgraph/ghost_frame.hpp"
#include "sgraph/string_graph.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

#include "fixed_costs.hpp"
#include "mutation.hpp"

namespace dsg = dibella::sgraph;
using dibella::u32;
using dibella::u64;
using dibella::align::AlignmentRecord;

namespace {

AlignmentRecord record(u64 a, u64 b, u32 a_begin, u32 a_end, u32 b_begin, u32 b_end,
                       int score = 100, bool same_orientation = true) {
  AlignmentRecord r;
  r.rid_a = a;
  r.rid_b = b;
  r.a_begin = a_begin;
  r.a_end = a_end;
  r.b_begin = b_begin;
  r.b_end = b_end;
  r.score = score;
  r.same_orientation = same_orientation ? 1 : 0;
  return r;
}

dsg::DovetailEdge edge(u64 lo, u64 hi, u32 ov = 100) {
  dsg::DovetailEdge e{};
  e.lo = lo;
  e.hi = hi;
  e.overlap_len = ov;
  e.from_is_lo = 1;
  return e;
}

/// Gid-indexed dummy reads of the given lengths (sequence content never
/// consulted by stage 5).
std::vector<dibella::io::Read> reads_of_lengths(const std::vector<u64>& lens) {
  std::vector<dibella::io::Read> reads(lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    reads[i].gid = i;
    // std::string("r").append(...) sidesteps GCC 12's -Wrestrict false
    // positive (PR105329) on `const char* + std::string&&` at -O3.
    reads[i].name = std::string("r").append(std::to_string(i));
    reads[i].seq.assign(lens[i], 'A');
  }
  return reads;
}

/// Run the stage standalone over a World: every record handed to rank 0
/// (stage 5 accepts records wherever stage 4 left them).
dsg::StringGraphOutput run_stage(const std::vector<u64>& lens,
                                 const std::vector<AlignmentRecord>& records,
                                 int ranks, const dsg::StringGraphConfig& cfg,
                                 std::vector<dsg::StringGraphStageResult>* results =
                                     nullptr) {
  auto reads = reads_of_lengths(lens);
  std::vector<u64> sizes;
  for (const auto& r : reads) sizes.push_back(r.seq.size());
  dibella::io::ReadPartition partition(sizes, ranks);
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(ranks));
  std::vector<dsg::StringGraphShard> outs(static_cast<std::size_t>(ranks));
  if (results) results->resize(static_cast<std::size_t>(ranks));
  dibella::comm::World world(ranks);
  world.run([&](dibella::comm::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    dibella::core::StageContext ctx{comm, traces[rank]};
    ctx.attach();
    dibella::io::ReadStore store(reads, partition, comm.rank());
    std::vector<AlignmentRecord> local = comm.rank() == 0 ? records
                                                          : std::vector<AlignmentRecord>{};
    outs[rank] = dsg::run_string_graph_stage(ctx, store, local, cfg,
                                             results ? &(*results)[rank] : nullptr);
  });
  return dsg::finalize_string_graph(std::move(outs));
}

}  // namespace

// --- classification ----------------------------------------------------------

TEST(EdgeClass, DovetailSuffixPrefix) {
  // a[500,990) joins b[10,500): a's suffix onto b's prefix.
  auto g = dsg::classify_alignment(record(0, 1, 500, 990, 10, 500), 1000, 1000, 50);
  EXPECT_EQ(g.cls, dsg::EdgeClass::kDovetail);
  EXPECT_TRUE(g.a_is_source);
  // Mirrored: b's suffix onto a's prefix.
  auto h = dsg::classify_alignment(record(0, 1, 10, 500, 500, 990), 1000, 1000, 50);
  EXPECT_EQ(h.cls, dsg::EdgeClass::kDovetail);
  EXPECT_FALSE(h.a_is_source);
}

TEST(EdgeClass, Containment) {
  // b is covered end to end; a has slack on both sides.
  auto g = dsg::classify_alignment(record(0, 1, 200, 1205, 5, 995), 2000, 1000, 50);
  EXPECT_EQ(g.cls, dsg::EdgeClass::kContainedB);
  auto h = dsg::classify_alignment(record(0, 1, 5, 995, 200, 1205), 1000, 2000, 50);
  EXPECT_EQ(h.cls, dsg::EdgeClass::kContainedA);
  // Both covered (equal-length twins): a wins the tie deterministically.
  auto t = dsg::classify_alignment(record(0, 1, 0, 1000, 0, 1000), 1000, 1000, 50);
  EXPECT_EQ(t.cls, dsg::EdgeClass::kContainedA);
}

TEST(EdgeClass, InternalMatch) {
  // A repeat-style match in the middle of both reads.
  auto g = dsg::classify_alignment(record(0, 1, 400, 700, 300, 600), 2000, 2000, 50);
  EXPECT_EQ(g.cls, dsg::EdgeClass::kInternal);
  EXPECT_EQ(dsg::edge_class_code(g.cls), 'I');
}

TEST(EdgeClass, ReverseComplementStrandAdjustment) {
  // Forward-frame b span [0, 490) with rc: in the aligned frame that is
  // b's *suffix*, so a-suffix onto b-prefix requires b's span mirrored.
  auto g = dsg::classify_alignment(record(0, 1, 500, 990, 510, 1000, 100, false),
                                   1000, 1000, 50);
  EXPECT_EQ(g.cls, dsg::EdgeClass::kDovetail);
  EXPECT_TRUE(g.a_is_source);
  auto e = dsg::make_dovetail_edge(record(0, 1, 500, 990, 510, 1000, 100, false), g);
  EXPECT_EQ(e.lo, 0u);
  EXPECT_EQ(e.hi, 1u);
  EXPECT_TRUE(e.from_is_lo);
  EXPECT_FALSE(e.rc_from);  // a keeps '+'
  EXPECT_TRUE(e.rc_to);     // b was reverse-complemented
}

// --- unitig extraction edge cases -------------------------------------------

TEST(Unitig, SimpleChain) {
  auto res = dsg::extract_unitigs({edge(0, 1), edge(1, 2), edge(2, 3)});
  ASSERT_EQ(res.unitigs.size(), 1u);
  EXPECT_EQ(res.unitigs[0].reads, (std::vector<u64>{0, 1, 2, 3}));
  EXPECT_FALSE(res.unitigs[0].circular);
  ASSERT_EQ(res.components.size(), 1u);
  EXPECT_EQ(res.components[0].reads, 4u);
  EXPECT_EQ(res.components[0].edges, 3u);
  EXPECT_EQ(res.components[0].unitigs, 1u);
  EXPECT_EQ(res.components[0].longest_unitig_reads, 4u);
}

TEST(Unitig, CircularComponent) {
  auto res = dsg::extract_unitigs({edge(0, 1), edge(0, 2), edge(1, 2)});
  ASSERT_EQ(res.unitigs.size(), 1u);
  EXPECT_TRUE(res.unitigs[0].circular);
  EXPECT_EQ(res.unitigs[0].reads.size(), 3u);
  EXPECT_EQ(res.unitigs[0].reads[0], 0u);  // seeded from the smallest gid
}

TEST(Unitig, BranchTerminatesChains) {
  // Y: 0-1-2 with extra arms 2-3 and 2-4; vertex 2 has degree 3.
  auto res = dsg::extract_unitigs({edge(0, 1), edge(1, 2), edge(2, 3), edge(2, 4)});
  ASSERT_EQ(res.unitigs.size(), 3u);
  // Every unitig terminates at the branch; none walk through it.
  for (const auto& u : res.unitigs) {
    for (std::size_t i = 1; i + 1 < u.reads.size(); ++i) {
      EXPECT_NE(u.reads[i], 2u) << "branch vertex used as unitig interior";
    }
  }
  EXPECT_EQ(res.unitigs[0].reads, (std::vector<u64>{0, 1, 2}));
}

TEST(Unitig, TipAndMultipleComponents) {
  // Component {0,1,2,3} with a tip 4 on vertex 1, plus a separate pair {5,6}.
  auto res = dsg::extract_unitigs(
      {edge(0, 1), edge(1, 2), edge(1, 4), edge(2, 3), edge(5, 6)});
  ASSERT_EQ(res.components.size(), 2u);
  EXPECT_EQ(res.components[0].reads, 5u);
  EXPECT_EQ(res.components[0].unitigs, 3u);  // [0,1], [1,2,3], [1,4]
  EXPECT_EQ(res.components[1].reads, 2u);
  EXPECT_EQ(res.components[1].unitigs, 1u);
  EXPECT_EQ(res.components[1].longest_unitig_reads, 2u);
}

TEST(Unitig, GfaSerialization) {
  auto reads = reads_of_lengths({1000, 1100, 1200});
  std::ostringstream os;
  dsg::write_gfa(os, {edge(0, 1, 400), edge(1, 2, 500)}, reads);
  std::istringstream is(os.str());
  std::string line;
  std::size_t s_lines = 0, l_lines = 0;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "H\tVN:Z:1.0");
  while (std::getline(is, line)) {
    if (line.rfind("S\t", 0) == 0) ++s_lines;
    if (line.rfind("L\t", 0) == 0) ++l_lines;
  }
  EXPECT_EQ(s_lines, 3u);
  EXPECT_EQ(l_lines, 2u);
  EXPECT_NE(os.str().find("S\tr0\t*\tLN:i:1000"), std::string::npos);
  EXPECT_NE(os.str().find("L\tr0\t+\tr1\t+\t400M"), std::string::npos);
}

// --- the stage over hand-built records --------------------------------------

TEST(StringGraphStage, SelfOverlapsAndContainedOnlyReadsDrop) {
  // Reads 0-1-2 chain; read 3 appears only as contained (in 1); read 4 only
  // in a self-overlap record.
  std::vector<u64> lens{1000, 1000, 1000, 400, 1000};
  std::vector<AlignmentRecord> recs{
      record(0, 1, 600, 1000, 0, 400),    // dovetail 0->1
      record(1, 2, 600, 1000, 0, 400),    // dovetail 1->2
      record(1, 3, 300, 700, 0, 400),     // 3 contained in 1
      record(4, 4, 0, 500, 500, 1000),    // self-overlap (a repeat)
  };
  dsg::StringGraphConfig cfg;
  cfg.fuzz = 50;
  std::vector<dsg::StringGraphStageResult> results;
  auto out = run_stage(lens, recs, 2, cfg, &results);

  u64 self_overlaps = 0, contained = 0, dovetails = 0;
  for (const auto& r : results) {
    self_overlaps += r.self_overlaps;
    contained += r.contained_reads;
    dovetails += r.edges_owned;
  }
  EXPECT_EQ(self_overlaps, 1u);
  EXPECT_EQ(contained, 1u);
  EXPECT_EQ(dovetails, 2u);
  ASSERT_EQ(out.surviving_edges.size(), 2u);
  for (const auto& e : out.surviving_edges) {
    EXPECT_NE(e.lo, 3u);  // the contained read is out of the graph
    EXPECT_NE(e.hi, 3u);
    EXPECT_NE(e.lo, 4u);  // so is the self-overlapping one
    EXPECT_NE(e.hi, 4u);
  }
  ASSERT_EQ(out.layout.unitigs.size(), 1u);
  EXPECT_EQ(out.layout.unitigs[0].reads, (std::vector<u64>{0, 1, 2}));
}

TEST(StringGraphStage, ContainedReadDropsItsDovetailsEverywhere) {
  // Read 1 is contained per one record but also has a dovetail per another:
  // the containment verdict must erase the dovetail too (and it must do so
  // even when the two records live on different ranks, which the ascending
  // record split across ranks exercises implicitly via rank 0 holding all).
  std::vector<u64> lens{1000, 800, 1000};
  std::vector<AlignmentRecord> recs{
      record(0, 1, 100, 905, 5, 800),   // 1 contained in 0
      record(1, 2, 400, 800, 0, 400),   // dovetail 1->2 (must be dropped)
  };
  dsg::StringGraphConfig cfg;
  cfg.fuzz = 50;
  auto out = run_stage(lens, recs, 3, cfg);
  EXPECT_TRUE(out.surviving_edges.empty());
  EXPECT_TRUE(out.layout.unitigs.empty());
}

TEST(StringGraphStage, DuplicatePairRecordsKeepBestScore) {
  // Two records for the same pair (the pipeline never emits this, but the
  // stage contract tolerates it): the best-scoring edge survives, matching
  // graph::OverlapGraph::from_alignments' dedup.
  std::vector<u64> lens{1000, 1000, 1000};
  std::vector<AlignmentRecord> recs{
      record(0, 1, 700, 1000, 0, 300, 30),
      record(1, 0, 600, 1000, 0, 400, 90),  // same pair, flipped, stronger
      record(1, 2, 600, 1000, 0, 400, 50),
  };
  dsg::StringGraphConfig cfg;
  cfg.fuzz = 50;
  auto out = run_stage(lens, recs, 2, cfg);
  ASSERT_EQ(out.surviving_edges.size(), 2u);
  EXPECT_EQ(out.surviving_edges[0].lo, 0u);
  EXPECT_EQ(out.surviving_edges[0].hi, 1u);
  EXPECT_EQ(out.surviving_edges[0].score, 90);
  EXPECT_EQ(out.surviving_edges[0].overlap_len, 400u);
  ASSERT_EQ(out.layout.unitigs.size(), 1u);
  EXPECT_EQ(out.layout.unitigs[0].reads.size(), 3u);
}

TEST(StringGraphStage, MinOverlapScoreFilters) {
  std::vector<u64> lens{1000, 1000, 1000};
  std::vector<AlignmentRecord> recs{
      record(0, 1, 600, 1000, 0, 400, 80),
      record(1, 2, 600, 1000, 0, 400, 20),
  };
  dsg::StringGraphConfig cfg;
  cfg.fuzz = 50;
  cfg.min_overlap_score = 50;
  auto out = run_stage(lens, recs, 2, cfg);
  ASSERT_EQ(out.surviving_edges.size(), 1u);
  EXPECT_EQ(out.surviving_edges[0].lo, 0u);
  EXPECT_EQ(out.surviving_edges[0].hi, 1u);
}

TEST(StringGraphStage, ReducesTransitiveShortcut) {
  // Chain 0-1-2 plus the weaker transitive shortcut 0-2 (cross-rank
  // triangle under 3 ranks: each vertex owned by a different rank).
  std::vector<u64> lens{1000, 1000, 1000};
  std::vector<AlignmentRecord> recs{
      record(0, 1, 100, 1000, 0, 900),   // ov 900
      record(1, 2, 200, 1000, 0, 800),   // ov 800
      record(0, 2, 700, 1000, 0, 300),   // ov 300: explained by 0-1-2
  };
  dsg::StringGraphConfig cfg;
  cfg.fuzz = 50;
  std::vector<dsg::StringGraphStageResult> results;
  auto out = run_stage(lens, recs, 3, cfg, &results);
  u64 removed = 0;
  for (const auto& r : results) removed += r.edges_removed;
  EXPECT_EQ(removed, 1u);
  ASSERT_EQ(out.surviving_edges.size(), 2u);
  EXPECT_EQ(out.surviving_edges[0].hi, 1u);
  EXPECT_EQ(out.surviving_edges[1].lo, 1u);
}

// --- differential: distributed reduction == sequential oracle ----------------

namespace {

/// The sequential oracle: classify + drop contained exactly as the stage
/// specifies, then build graph::OverlapGraph and run its (independent)
/// transitive reduction. Optionally also returns the reduced graph's
/// adjacency rows (the live_adjacency oracle hook) for the walk differential.
std::vector<dibella::graph::LiveEdge> oracle_surviving(
    const std::vector<AlignmentRecord>& records, const std::vector<u64>& lens,
    const dsg::StringGraphConfig& cfg,
    std::vector<std::vector<u64>>* adjacency = nullptr) {
  std::set<u64> contained;
  std::vector<std::pair<AlignmentRecord, dsg::EdgeGeometry>> dovetails;
  for (const auto& rec : records) {
    if (rec.rid_a == rec.rid_b || rec.score < cfg.min_overlap_score) continue;
    auto geom = dsg::classify_alignment(rec, lens[static_cast<std::size_t>(rec.rid_a)],
                                        lens[static_cast<std::size_t>(rec.rid_b)],
                                        cfg.fuzz);
    if (geom.cls == dsg::EdgeClass::kContainedA) contained.insert(rec.rid_a);
    if (geom.cls == dsg::EdgeClass::kContainedB) contained.insert(rec.rid_b);
    if (geom.cls == dsg::EdgeClass::kDovetail) dovetails.push_back({rec, geom});
  }
  std::vector<AlignmentRecord> kept;
  for (const auto& [rec, geom] : dovetails) {
    if (contained.count(rec.rid_a) || contained.count(rec.rid_b)) continue;
    kept.push_back(rec);
  }
  auto g = dibella::graph::OverlapGraph::from_alignments(kept, lens.size());
  g.transitive_reduction();
  if (adjacency) *adjacency = g.live_adjacency();
  return g.live_edges();
}

/// Slice gid-indexed adjacency rows into `bounds.size()-1` contiguous
/// fragments (the ownership shape io::ReadPartition produces) and stitch.
dsg::UnitigResult stitch_over_partition(const std::vector<std::vector<u64>>& adj,
                                        const std::vector<u64>& bounds) {
  std::vector<dsg::WalkFragment> frags;
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
    std::vector<std::vector<u64>> slice(
        adj.begin() + static_cast<std::ptrdiff_t>(bounds[r]),
        adj.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]));
    frags.push_back(dsg::build_walk_fragment(bounds[r], std::move(slice)));
  }
  return dsg::stitch_unitigs(frags);
}

void expect_layouts_equal(const dsg::UnitigResult& got, const dsg::UnitigResult& want) {
  ASSERT_EQ(got.unitigs.size(), want.unitigs.size());
  for (std::size_t i = 0; i < want.unitigs.size(); ++i) {
    EXPECT_EQ(got.unitigs[i].reads, want.unitigs[i].reads) << "unitig " << i;
    EXPECT_EQ(got.unitigs[i].circular, want.unitigs[i].circular) << "unitig " << i;
  }
  ASSERT_EQ(got.components.size(), want.components.size());
  for (std::size_t i = 0; i < want.components.size(); ++i) {
    EXPECT_EQ(got.components[i].reads, want.components[i].reads) << "comp " << i;
    EXPECT_EQ(got.components[i].edges, want.components[i].edges) << "comp " << i;
    EXPECT_EQ(got.components[i].unitigs, want.components[i].unitigs) << "comp " << i;
    EXPECT_EQ(got.components[i].longest_unitig_reads,
              want.components[i].longest_unitig_reads)
        << "comp " << i;
  }
}

}  // namespace

TEST(DistributedWalk, StitchMatchesExtractUnitigsAcrossPartitions) {
  // Deterministic pseudo-random graphs — chains, branches, tips, plus a
  // planted cycle long enough to span several fragments. For every
  // partition (including a maximally skewed one) the stitched layout must
  // equal the sequential extraction field for field.
  for (u64 seed : {1u, 7u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    u64 state = seed * 0x9E3779B97F4A7C15ull + 1;
    auto rnd = [&state](u64 m) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return (state >> 33) % m;
    };
    const u64 n = 48;
    std::set<std::pair<u64, u64>> pairs;
    for (int i = 0; i < 70; ++i) {
      u64 a = rnd(n - 8);  // keep the planted cycle's degree profile intact
      u64 b = rnd(n - 8);
      if (a != b) pairs.insert({std::min(a, b), std::max(a, b)});
    }
    for (u64 v = 40; v < 47; ++v) pairs.insert({v, v + 1});
    pairs.insert({40, 47});

    std::vector<dsg::DovetailEdge> edges;
    std::vector<std::vector<u64>> adj(n);
    for (const auto& [lo, hi] : pairs) {
      edges.push_back(edge(lo, hi));
      adj[static_cast<std::size_t>(lo)].push_back(hi);
      adj[static_cast<std::size_t>(hi)].push_back(lo);
    }
    for (auto& row : adj) std::sort(row.begin(), row.end());
    const auto want = dsg::extract_unitigs(edges);
    ASSERT_GT(want.unitigs.size(), 0u);

    for (u64 ranks : {1u, 2u, 3u, 5u, 7u}) {
      SCOPED_TRACE(std::to_string(ranks) + " ranks");
      std::vector<u64> bounds;
      for (u64 r = 0; r <= ranks; ++r) bounds.push_back(r * n / ranks);
      expect_layouts_equal(stitch_over_partition(adj, bounds), want);
    }
    // Maximally skewed: one vertex on rank 0, the rest on rank 1.
    expect_layouts_equal(stitch_over_partition(adj, {0, 1, n}), want);
  }
}

TEST(StringGraphDifferential, DistributedMatchesOracleAcrossRanksAndSchedules) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::core::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = 0.12;
  cfg.assumed_coverage = 20.0;
  cfg.stage5 = true;

  std::vector<u64> lens;
  for (const auto& r : sim.reads) lens.push_back(r.seq.size());
  dsg::StringGraphConfig scfg;
  scfg.min_overlap_score = cfg.min_overlap_score;
  scfg.fuzz = cfg.sgraph_fuzz;

  std::string first_gfa;
  std::vector<dibella::graph::LiveEdge> expected;
  std::vector<std::vector<u64>> oracle_adj;
  dsg::UnitigResult want_layout;
  bool have_expected = false;
  for (int ranks : {1, 2, 3, 5}) {
    for (bool overlap : {true, false}) {
      cfg.overlap_comm = overlap;
      dibella::comm::World world(ranks);
      auto out = run_pipeline(world, sim.reads, cfg);
      if (!have_expected) {
        // The alignment set is rank-count independent (pinned elsewhere), so
        // one oracle evaluation covers every configuration.
        expected = oracle_surviving(out.merged_alignments(), lens, scfg, &oracle_adj);
        have_expected = true;
        ASSERT_GT(expected.size(), 0u);
        std::vector<dsg::DovetailEdge> expected_edges;
        for (const auto& e : expected) expected_edges.push_back(edge(e.lo, e.hi));
        want_layout = dsg::extract_unitigs(expected_edges);
      }
      const auto& got = out.string_graph.surviving_edges;
      ASSERT_EQ(got.size(), expected.size())
          << "ranks=" << ranks << " overlap=" << overlap;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].lo, expected[i].lo);
        EXPECT_EQ(got[i].hi, expected[i].hi);
        EXPECT_EQ(got[i].overlap_len, expected[i].overlap_len);
        EXPECT_EQ(got[i].score, expected[i].score);
        EXPECT_EQ(got[i].same_orientation, expected[i].same_orientation);
      }
      // The distributed walk's stitched layout must equal the sequential
      // extraction over the oracle's surviving set, every configuration.
      expect_layouts_equal(out.string_graph.layout, want_layout);
      // And stitching fragments cut from the oracle hook (live_adjacency)
      // at this run's ownership bounds must agree too.
      {
        std::vector<u64> bounds;
        for (int r = 0; r < ranks; ++r) bounds.push_back(out.partition.first_gid(r));
        bounds.push_back(lens.size());
        expect_layouts_equal(stitch_over_partition(oracle_adj, bounds), want_layout);
      }
      // GFA bytes and unitig count are pinned across every configuration.
      std::ostringstream gfa;
      dsg::write_gfa(gfa, got, sim.reads);
      if (first_gfa.empty()) {
        first_gfa = gfa.str();
        EXPECT_GT(out.counters.sg_unitigs, 0u);
      } else {
        EXPECT_EQ(gfa.str(), first_gfa) << "ranks=" << ranks << " overlap=" << overlap;
      }
    }
  }
}

TEST(StringGraphStage, CostModelReportsSgraphStage) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::core::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = 0.12;
  cfg.assumed_coverage = 20.0;
  cfg.stage5 = true;
  dibella::comm::World world(3);
  auto out = run_pipeline(world, sim.reads, cfg);
  auto report = out.evaluate(dibella::netsim::cori(),
                             dibella::netsim::Topology{1, 3}, fixed_kernel_costs());
  ASSERT_TRUE(report.has_stage("sgraph"));
  const auto& s = report.stage("sgraph");
  EXPECT_GT(s.exchange_calls, 0u);
  EXPECT_GT(s.compute_virtual, 0.0);
  // The overlapped schedule hides part of the stage's exchange behind the
  // packing/consuming compute recorded in flight.
  EXPECT_LE(s.exchange_exposed_virtual, s.exchange_virtual);
}

TEST(StringGraphStage, Stage5OffLeavesOutputEmpty) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::core::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = 0.12;
  cfg.assumed_coverage = 20.0;
  cfg.stage5 = false;
  dibella::comm::World world(2);
  auto out = run_pipeline(world, sim.reads, cfg);
  EXPECT_TRUE(out.string_graph.surviving_edges.empty());
  EXPECT_EQ(out.counters.sg_unitigs, 0u);
  auto report = out.evaluate(dibella::netsim::local_host(),
                             dibella::netsim::Topology{1, 2}, fixed_kernel_costs());
  EXPECT_FALSE(report.has_stage("sgraph"));
}

// --- fused-frame wire format -----------------------------------------------

namespace {

namespace ff = dsg::fused_frame;

struct FrameSpec {
  std::vector<u64> contained;  // sorted gids
  std::vector<dsg::DovetailEdge> edges;  // strictly increasing (lo, hi)
};

FrameSpec random_frame(dibella::util::Xoshiro256& rng, u64 n_reads) {
  FrameSpec f;
  // Sparse sets ride as gid lists, dense ones as bitmaps.
  const u64 per_mille = rng.uniform_below(2) ? 2 : 300;
  for (u64 g = 0; g < n_reads; ++g) {
    if (rng.uniform_below(1000) < per_mille) f.contained.push_back(g);
  }
  std::set<std::pair<u64, u64>> pairs;
  const u64 n_edges = rng.uniform_below(40);
  for (u64 i = 0; i < n_edges && n_reads > 1; ++i) {
    const u64 a = rng.uniform_below(n_reads), b = rng.uniform_below(n_reads);
    if (a != b) pairs.insert({std::min(a, b), std::max(a, b)});
  }
  for (const auto& [lo, hi] : pairs) {
    dsg::DovetailEdge e;
    e.lo = lo;
    e.hi = hi;
    e.overlap_len = static_cast<u32>(rng.uniform_below(u64{1} << 28));
    e.score = static_cast<dibella::i32>(rng.uniform_below(100000));
    e.same_orientation = static_cast<dibella::u8>(rng.uniform_below(2));
    e.from_is_lo = static_cast<dibella::u8>(rng.uniform_below(2));
    e.rc_from = static_cast<dibella::u8>(rng.uniform_below(2));
    e.rc_to = static_cast<dibella::u8>(rng.uniform_below(2));
    f.edges.push_back(e);
  }
  return f;
}

/// Encode `frames` as one stream; `boundaries` receives every frame end.
std::vector<dibella::u8> encode_frames(const std::vector<FrameSpec>& frames, u64 n_reads,
                                       std::vector<std::size_t>* boundaries = nullptr) {
  std::vector<dibella::u8> buf;
  if (boundaries) boundaries->assign(1, 0);
  for (const auto& f : frames) {
    ff::append_header(buf, ff::encode_contained(f.contained, n_reads), f.edges.size());
    for (const auto& e : f.edges) ff::append_edge(buf, e);
    if (boundaries) boundaries->push_back(buf.size());
  }
  return buf;
}

struct Decoded {
  std::vector<dibella::u8> marks;
  std::vector<dsg::DovetailEdge> edges;
};

/// Decode `bytes` over an `n_reads` read set; false on a typed Error (any
/// other exception escapes and fails the test).
bool decodes(const std::vector<dibella::u8>& bytes, u64 n_reads, Decoded* out = nullptr) {
  Decoded d;
  d.marks.assign(static_cast<std::size_t>(n_reads), 0);
  std::vector<std::size_t> bounds{0};
  try {
    ff::decode_stream(bytes.data(), bytes.size(), d.marks, d.edges, bounds);
  } catch (const dibella::Error&) {
    return false;
  }
  for (const auto& e : d.edges) {
    EXPECT_LT(e.lo, e.hi);
    EXPECT_LT(e.hi, n_reads);
  }
  if (out) *out = std::move(d);
  return true;
}

}  // namespace

TEST(FusedFrame, RoundTripsListAndBitmapFrames) {
  dibella::util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const u64 n_reads = 1 + rng.uniform_below(3000);
    std::vector<FrameSpec> frames;
    for (u64 i = 0, n = 1 + rng.uniform_below(3); i < n; ++i) {
      frames.push_back(random_frame(rng, n_reads));
    }
    Decoded d;
    ASSERT_TRUE(decodes(encode_frames(frames, n_reads), n_reads, &d));
    std::vector<dibella::u8> marks(static_cast<std::size_t>(n_reads), 0);
    std::vector<dsg::DovetailEdge> edges;
    for (const auto& f : frames) {
      for (u64 g : f.contained) marks[static_cast<std::size_t>(g)] = 1;
      edges.insert(edges.end(), f.edges.begin(), f.edges.end());
    }
    EXPECT_EQ(d.marks, marks);
    ASSERT_EQ(d.edges.size(), edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto& a = d.edges[i];
      const auto& b = edges[i];
      EXPECT_TRUE(a.lo == b.lo && a.hi == b.hi && a.overlap_len == b.overlap_len &&
                  a.score == b.score && a.same_orientation == b.same_orientation &&
                  a.from_is_lo == b.from_is_lo && a.rc_from == b.rc_from &&
                  a.rc_to == b.rc_to)
          << "edge " << i;
    }
  }
}

TEST(FusedFrame, EncoderRejectsValuesTheWireCannotCarry) {
  std::vector<dibella::u8> buf;
  dsg::DovetailEdge e;
  e.lo = 1;
  e.hi = u64{1} << 32;
  EXPECT_THROW(ff::append_edge(buf, e), dibella::Error);
  e.hi = 2;
  e.overlap_len = u32{1} << 28;
  EXPECT_THROW(ff::append_edge(buf, e), dibella::Error);
}

TEST(FusedFrame, MalformedValuesAreTypedErrors) {
  // Each of these used to index the contained byte map out of bounds.
  const u64 n_reads = 100;
  auto frame_bytes = [&](const std::vector<u64>& header, const std::vector<u64>& words,
                         const std::vector<u32>& edge_words) {
    std::vector<dibella::u8> b;
    const auto append = [&b](const auto& v) {
      const auto* p = reinterpret_cast<const dibella::u8*>(v.data());
      b.insert(b.end(), p, p + v.size() * sizeof(v[0]));
    };
    append(header);
    append(words);
    append(edge_words);
    return b;
  };
  EXPECT_TRUE(decodes(frame_bytes({1, 0, 0}, {99}, {}), n_reads));
  EXPECT_FALSE(decodes(frame_bytes({1, 0, 0}, {100}, {}), n_reads));  // list gid >= N
  EXPECT_TRUE(decodes(frame_bytes({2, 0, 1}, {0, u64{1} << 35}, {}), n_reads));
  EXPECT_FALSE(decodes(frame_bytes({3, 0, 1}, {0, 0, 0}, {}), n_reads));  // > ceil(N/64)
  EXPECT_FALSE(decodes(frame_bytes({2, 0, 1}, {0, u64{1} << 36}, {}), n_reads));  // bit N
  EXPECT_FALSE(decodes(frame_bytes({0, 0, 2}, {}, {}), n_reads));  // unknown mode
  EXPECT_TRUE(decodes(frame_bytes({0, 1, 0}, {}, {3, 99, 10, 5}), n_reads));
  EXPECT_FALSE(decodes(frame_bytes({0, 1, 0}, {}, {5, 5, 10, 5}), n_reads));    // lo == hi
  EXPECT_FALSE(decodes(frame_bytes({0, 1, 0}, {}, {7, 5, 10, 5}), n_reads));    // lo > hi
  EXPECT_FALSE(decodes(frame_bytes({0, 1, 0}, {}, {3, 100, 10, 5}), n_reads));  // hi >= N
  EXPECT_FALSE(decodes(frame_bytes({0, 2, 0}, {}, {3, 9, 1, 1, 3, 9, 1, 1}), n_reads));
  // A count near 2^64 must not wrap the byte length it is scaled to.
  EXPECT_FALSE(decodes(frame_bytes({u64{1} << 61, 0, 0}, {7}, {}), n_reads));
  EXPECT_FALSE(decodes(frame_bytes({0, u64{1} << 60, 0}, {}, {3, 9, 1, 1}), n_reads));
}

TEST(FusedFrame, SeededMutationsEndInErrorOrAValidDecode) {
  // Truncate, flip and splice encoded streams. A mutation may still form a
  // valid stream (a cut between frames, a flipped score bit), so each case
  // must either decode to in-range values or throw dibella::Error, never
  // another exception and never an out-of-bounds access (run under ASan to
  // see the latter). Cuts inside a frame must throw.
  dibella::util::Xoshiro256 rng(4243);
  for (int trial = 0; trial < 30; ++trial) {
    const u64 n_reads = 1 + rng.uniform_below(trial % 2 ? 200 : 5000);
    std::vector<FrameSpec> frames;
    for (u64 i = 0, n = 1 + rng.uniform_below(3); i < n; ++i) {
      frames.push_back(random_frame(rng, n_reads));
    }
    std::vector<std::size_t> boundaries;
    const auto bytes = encode_frames(frames, n_reads, &boundaries);
    ASSERT_TRUE(decodes(bytes, n_reads));

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<dibella::u8> b(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      const bool at_boundary =
          std::find(boundaries.begin(), boundaries.end(), cut) != boundaries.end();
      EXPECT_EQ(decodes(b, n_reads), at_boundary) << "cut at " << cut;
    }
    for (int f = 0; f < 64; ++f) {
      std::vector<dibella::u8> b = bytes;
      b[rng.uniform_below(b.size())] ^= static_cast<dibella::u8>(1u << rng.uniform_below(8));
      decodes(b, n_reads);
    }
    for (int f = 0; f < 16; ++f) {
      const u64 other_n = 1 + rng.uniform_below(20000);
      const auto other = encode_frames({random_frame(rng, other_n)}, other_n);
      std::vector<dibella::u8> b(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(
                                                     rng.uniform_below(bytes.size() + 1)));
      b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(rng.uniform_below(other.size())),
               other.end());
      decodes(b, n_reads);
    }
  }
}

namespace {

namespace gf = dsg::ghost_frame;

/// A source rank's ghost stream: `rows` random adjacency rows of vertices in
/// [first, end), neighbours anywhere in [0, n_reads) but the vertex itself.
std::vector<dibella::u8> ghost_stream(dibella::util::Xoshiro256& rng, u64 n_reads, u64 first,
                                      u64 end, std::size_t rows,
                                      std::vector<std::size_t>* boundaries = nullptr) {
  std::vector<dibella::u8> buf;
  std::set<u64> gids;
  while (gids.size() < rows) gids.insert(first + rng.uniform_below(end - first));
  for (u64 gid : gids) {
    std::vector<dsg::CsrEntry> row;
    for (u64 k = 0, deg = 1 + rng.uniform_below(5); k < deg; ++k) {
      u64 col = rng.uniform_below(n_reads - 1);
      if (col >= gid) ++col;
      row.push_back(dsg::CsrEntry{col, static_cast<u32>(rng.uniform_below(20000))});
    }
    gf::append_row(buf, gid, row.data(), row.size());
    if (boundaries) boundaries->push_back(buf.size());
  }
  return buf;
}

/// Decode `bytes` as the stream of a source owning [first, end) and seal
/// it; false on dibella::Error (any other exception fails the test).
bool ghost_decodes(const std::vector<dibella::u8>& bytes, u64 n_reads, u64 first, u64 end,
                   dsg::CsrAdjacency* out = nullptr) {
  dsg::CsrAdjacency adj;
  try {
    gf::decode_stream(bytes.data(), bytes.size(), n_reads, first, end, adj);
    adj.seal();
  } catch (const dibella::Error&) {
    return false;
  }
  if (out) *out = std::move(adj);
  return true;
}

}  // namespace

TEST(GhostFrame, RoundTripsRows) {
  dibella::util::Xoshiro256 rng(31);
  const u64 n_reads = 500, first = 100, end = 200;
  std::vector<dibella::u8> buf;
  std::map<u64, std::vector<dsg::CsrEntry>> rows;
  for (u64 gid : {100u, 117u, 199u}) {
    auto& row = rows[gid];
    for (u64 col : {u64{0}, gid + 1, u64{499}}) {
      row.push_back(dsg::CsrEntry{col, static_cast<u32>(rng.uniform_below(1000))});
    }
    gf::append_row(buf, gid, row.data(), row.size());
  }
  dsg::CsrAdjacency adj;
  ASSERT_TRUE(ghost_decodes(buf, n_reads, first, end, &adj));
  EXPECT_EQ(adj.rows(), rows.size());
  for (const auto& [gid, row] : rows) {
    const auto got = adj.row(gid);
    ASSERT_EQ(static_cast<std::size_t>(got.end - got.begin), row.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(got.begin[k].col, row[k].col);
      EXPECT_EQ(got.begin[k].ov, row[k].ov);
    }
  }
}

TEST(GhostFrame, MalformedFramesAreTypedErrors) {
  const u64 n_reads = 100, first = 10, end = 20;
  auto frame = [](const std::vector<u32>& words) {
    std::vector<dibella::u8> b(words.size() * sizeof(u32));
    std::memcpy(b.data(), words.data(), b.size());
    return b;
  };
  EXPECT_TRUE(ghost_decodes(frame({10, 1, 99, 7}), n_reads, first, end));
  EXPECT_TRUE(ghost_decodes(frame({19, 2, 0, 7, 18, 1}), n_reads, first, end));
  EXPECT_FALSE(ghost_decodes(frame({10, 0}), n_reads, first, end));         // deg 0
  EXPECT_FALSE(ghost_decodes(frame({9, 1, 50, 7}), n_reads, first, end));   // not the source's
  EXPECT_FALSE(ghost_decodes(frame({20, 1, 50, 7}), n_reads, first, end));  // not the source's
  EXPECT_FALSE(ghost_decodes(frame({10, 1, 100, 7}), n_reads, first, end));  // col >= N
  EXPECT_FALSE(ghost_decodes(frame({10, 1, 10, 7}), n_reads, first, end));   // self loop
  EXPECT_FALSE(ghost_decodes(frame({10, 2, 99, 7}), n_reads, first, end));   // truncated row
  EXPECT_FALSE(ghost_decodes(frame({10, 0xFFFFFFFFu, 99, 7}), n_reads, first, end));
  EXPECT_FALSE(ghost_decodes(frame({10, 1, 99, 7, 10, 1, 98, 7}), n_reads, first, end));
  // A source whose range reaches past the read set still checks gid < N.
  EXPECT_FALSE(ghost_decodes(frame({100, 1, 5, 7}), n_reads, 90, 110));
}

TEST(GhostFrame, SeededMutationsEndInErrorOrAValidDecode) {
  // Truncate, flip and splice ghost streams. A mutant may still be a valid
  // stream (a cut between frames, a flipped overlap bit); it must then
  // decode to rows that keep every rule, and otherwise throw dibella::Error.
  // Cuts inside a frame must throw.
  dibella::util::Xoshiro256 rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    const u64 n_reads = 40 + rng.uniform_below(trial % 2 ? 100 : 5000);
    const u64 first = rng.uniform_below(n_reads / 2);
    const u64 end = first + 8 + rng.uniform_below(std::min<u64>(n_reads / 2 - 8, 64));
    std::vector<std::size_t> boundaries{0};
    const auto bytes = ghost_stream(rng, n_reads, first, end, 1 + rng.uniform_below(6),
                                    &boundaries);
    ASSERT_TRUE(ghost_decodes(bytes, n_reads, first, end));
    const auto other = ghost_stream(rng, n_reads + 1000, 0, n_reads + 1000, 4);
    const std::string text(bytes.begin(), bytes.end());
    const std::string other_text(other.begin(), other.end());
    const auto mutants = dibella::test::seeded_mutants(text, other_text, rng);
    for (std::size_t i = 0; i < mutants.size(); ++i) {
      const std::vector<dibella::u8> m(mutants[i].begin(), mutants[i].end());
      dsg::CsrAdjacency adj;
      const bool ok = ghost_decodes(m, n_reads, first, end, &adj);
      if (i < text.size()) {  // the proper prefixes come first
        const bool at_boundary =
            std::find(boundaries.begin(), boundaries.end(), i) != boundaries.end();
        EXPECT_EQ(ok, at_boundary) << "cut at " << i;
      }
      if (!ok) continue;
      EXPECT_LE(adj.rows(), end - first);
      for (u64 gid = first; gid < end; ++gid) {
        dsg::CsrAdjacency::RowSpan row;
        try {
          row = adj.row(gid);
        } catch (const dibella::Error&) {
          continue;  // no row for this vertex
        }
        EXPECT_NE(row.begin, row.end);
        for (auto* e = row.begin; e != row.end; ++e) {
          EXPECT_LT(e->col, n_reads);
          EXPECT_NE(e->col, gid);
        }
      }
    }
  }
}
