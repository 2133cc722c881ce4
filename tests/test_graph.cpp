// Tests for the overlap-graph utilities: construction/dedup, connected
// components, degree statistics, and transitive reduction.

#include <gtest/gtest.h>

#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "graph/overlap_graph.hpp"
#include "simgen/presets.hpp"

namespace dg = dibella::graph;
using dibella::align::AlignmentRecord;
using dibella::u64;

namespace {

AlignmentRecord edge(u64 a, u64 b, int score, dibella::u32 len) {
  AlignmentRecord r;
  r.rid_a = a;
  r.rid_b = b;
  r.score = score;
  r.a_begin = 0;
  r.a_end = len;
  r.b_begin = 0;
  r.b_end = len;
  return r;
}

}  // namespace

TEST(OverlapGraph, BuildAndDeduplicate) {
  std::vector<AlignmentRecord> recs = {edge(0, 1, 50, 100), edge(1, 0, 80, 150),
                                       edge(2, 3, 30, 60)};
  auto g = dg::OverlapGraph::from_alignments(recs, 5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 2u);  // (0,1) deduplicated, best score kept
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].score, 80);
  EXPECT_EQ(g.neighbors(0)[0].overlap_len, 150u);
  // min_score drops weak edges.
  auto g2 = dg::OverlapGraph::from_alignments(recs, 5, 40);
  EXPECT_EQ(g2.num_edges(), 1u);
}

TEST(OverlapGraph, ConnectedComponents) {
  std::vector<AlignmentRecord> recs = {edge(0, 1, 10, 10), edge(1, 2, 10, 10),
                                       edge(3, 4, 10, 10)};
  auto g = dg::OverlapGraph::from_alignments(recs, 6);
  auto comp = g.connected_components();
  EXPECT_EQ(g.num_components(), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(OverlapGraph, DegreeHistogram) {
  std::vector<AlignmentRecord> recs = {edge(0, 1, 10, 10), edge(0, 2, 10, 10),
                                       edge(0, 3, 10, 10)};
  auto g = dg::OverlapGraph::from_alignments(recs, 4);
  auto h = g.degree_histogram();
  EXPECT_EQ(h.count_of(3), 1u);  // the hub
  EXPECT_EQ(h.count_of(1), 3u);  // the leaves
}

TEST(OverlapGraph, TransitiveReductionRemovesShortcut) {
  // Chain a-b-c with a long a-b and b-c, plus the shorter transitive a-c.
  std::vector<AlignmentRecord> recs = {edge(0, 1, 90, 900), edge(1, 2, 80, 800),
                                       edge(0, 2, 30, 300)};
  auto g = dg::OverlapGraph::from_alignments(recs, 3);
  EXPECT_EQ(g.num_edges(), 3u);
  u64 removed = g.transitive_reduction();
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(g.num_edges(), 2u);
  // The chain stays connected.
  EXPECT_EQ(g.num_components(), 1u);
  // Degrees after reduction: 1, 2, 1.
  auto h = g.degree_histogram();
  EXPECT_EQ(h.count_of(2), 1u);
  EXPECT_EQ(h.count_of(1), 2u);
}

TEST(OverlapGraph, ReductionIsOrderIndependentOnEqualOverlapTriangles) {
  // All three edges tie on overlap length: the strict total order
  // (overlap_len, lo, hi) lets exactly one edge — the lowest-ranked, (0,1)
  // — be explained by the two higher-ranked ones. Mutual elimination (which
  // a non-strict rule would allow, disconnecting the triangle) must not
  // occur, and the verdicts must not depend on traversal order.
  std::vector<AlignmentRecord> recs = {edge(0, 1, 30, 300), edge(1, 2, 30, 300),
                                       edge(0, 2, 30, 300)};
  auto g = dg::OverlapGraph::from_alignments(recs, 3);
  EXPECT_EQ(g.transitive_reduction(), 1u);
  auto live = g.live_edges();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].lo, 0u);
  EXPECT_EQ(live[0].hi, 2u);
  EXPECT_EQ(live[1].lo, 1u);
  EXPECT_EQ(live[1].hi, 2u);
  EXPECT_EQ(g.num_components(), 1u);  // still connected
}

TEST(OverlapGraph, LiveEdgesCanonicalOrder) {
  std::vector<AlignmentRecord> recs = {edge(4, 1, 10, 100), edge(2, 0, 20, 200),
                                       edge(3, 2, 30, 300)};
  auto g = dg::OverlapGraph::from_alignments(recs, 5);
  auto live = g.live_edges();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0].lo, 0u);
  EXPECT_EQ(live[0].hi, 2u);
  EXPECT_EQ(live[0].overlap_len, 200u);
  EXPECT_EQ(live[1].lo, 1u);
  EXPECT_EQ(live[1].hi, 4u);
  EXPECT_EQ(live[2].lo, 2u);
  EXPECT_EQ(live[2].hi, 3u);
}

TEST(OverlapGraph, ReductionKeepsNonTransitiveTriangles) {
  // Triangle where the "shortcut" is the strongest edge: must survive.
  std::vector<AlignmentRecord> recs = {edge(0, 1, 30, 300), edge(1, 2, 30, 300),
                                       edge(0, 2, 90, 900)};
  auto g = dg::OverlapGraph::from_alignments(recs, 3);
  g.transitive_reduction();
  bool zero_two_alive = false;
  for (const auto& e : g.neighbors(0)) {
    if (e.to == 2 && !e.removed) zero_two_alive = true;
  }
  EXPECT_TRUE(zero_two_alive);
}

TEST(OverlapGraph, PipelineAlignmentsFormMostlyOneComponent) {
  // Reads sampled at 20x from one genome must form a densely connected
  // overlap graph: the giant component carries almost all reads — the
  // property de novo assembly depends on.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::core::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = 0.12;
  cfg.assumed_coverage = 20.0;
  dibella::comm::World world(4);
  auto out = run_pipeline(world, sim.reads, cfg);

  auto g = dg::OverlapGraph::from_alignments(out.merged_alignments(), sim.reads.size(), 50);
  auto comp = g.connected_components();
  std::map<u64, u64> sizes;
  for (u64 c : comp) ++sizes[c];
  u64 giant = 0;
  for (auto& [c, n] : sizes) giant = std::max(giant, n);
  EXPECT_GT(static_cast<double>(giant), 0.8 * static_cast<double>(sim.reads.size()));
  // Transitive reduction thins a dense overlap graph substantially.
  u64 before = g.num_edges();
  u64 removed = g.transitive_reduction();
  EXPECT_GT(removed, before / 4);
}
