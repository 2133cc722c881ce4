#pragma once
/// \file sgraph_workload.hpp
/// Shared workload + measurement for the stage-5 benches: a synthetic
/// genome read layout (reads at random positions, overlap records derived
/// from the true interval intersections) pushed through (a) the sequential
/// graph::OverlapGraph oracle and (b) the distributed sgraph stage over an
/// in-process World. Both paths are checksummed against each other before
/// any number is reported, mirroring the PR 2 bench rule.

#include <algorithm>
#include <set>
#include <vector>

#include "bench_common.hpp"
#include "comm/world.hpp"
#include "core/stage_context.hpp"
#include "graph/overlap_graph.hpp"
#include "io/read_store.hpp"
#include "netsim/cost_model.hpp"
#include "netsim/platform.hpp"
#include "netsim/rank_trace.hpp"
#include "sgraph/string_graph.hpp"
#include "util/common.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace dibella::benchx {

struct SgraphWorkload {
  std::vector<align::AlignmentRecord> records;
  std::vector<u64> read_lengths;
};

/// Reads tiled over a circular-free linear genome; every true overlap of at
/// least `min_overlap` bp yields one perfect alignment record (score = the
/// overlap length), so classification produces the realistic contained /
/// dovetail / internal mix of a coverage-`n_reads * mean_len / genome_len`
/// layout.
inline SgraphWorkload make_sgraph_workload(std::size_t n_reads, u64 genome_len,
                                           u64 mean_len, u64 min_overlap, u64 seed) {
  util::Xoshiro256 rng(seed);
  struct Placed {
    u64 start, len, gid;
  };
  std::vector<Placed> placed(n_reads);
  SgraphWorkload w;
  w.read_lengths.resize(n_reads);
  for (std::size_t i = 0; i < n_reads; ++i) {
    u64 len = mean_len / 2 + rng.uniform_below(mean_len);
    u64 start = rng.uniform_below(genome_len > len ? genome_len - len : 1);
    placed[i] = Placed{start, len, i};
    w.read_lengths[i] = len;
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& x, const Placed& y) { return x.start < y.start; });
  for (std::size_t i = 0; i < placed.size(); ++i) {
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      const auto& a = placed[i];
      const auto& b = placed[j];
      if (b.start >= a.start + a.len) break;  // sorted: no further overlaps
      u64 s = b.start;
      u64 e = std::min(a.start + a.len, b.start + b.len);
      if (e <= s || e - s < min_overlap) continue;
      align::AlignmentRecord rec;
      rec.rid_a = a.gid;
      rec.rid_b = b.gid;
      rec.a_begin = static_cast<u32>(s - a.start);
      rec.a_end = static_cast<u32>(e - a.start);
      rec.b_begin = static_cast<u32>(s - b.start);
      rec.b_end = static_cast<u32>(e - b.start);
      rec.score = static_cast<i32>(e - s);
      rec.same_orientation = 1;
      w.records.push_back(rec);
    }
  }
  return w;
}

struct SgraphBenchResult {
  /// The complete stage-5 job — classify, containment drop, best-per-pair
  /// consolidation (std::map, the retained oracle idiom), transitive
  /// reduction, unitig layout — run sequentially, best-of-reps wall. Both
  /// sides time the same raw-records-to-layout job; what stays *outside*
  /// both timed regions is ingest-time setup (read sequences, partition,
  /// per-rank ReadStores, cost-model calibration), which the old bench
  /// folded into the distributed side only.
  double sequential_s = 0;
  /// The same job through the distributed stage + shard finalize over a
  /// World, best-of-reps wall; the per-rank ReadStores are built once,
  /// untimed, before the reps.
  double distributed_s = 0;
  /// Modeled stage-5 seconds on Cori at the run's rank count (exact wire
  /// volumes, work-based compute accounting) — deterministic, so it carries
  /// the strong-scaling story even on a single-core host, where the real
  /// `distributed_s` of an in-process thread World measures distribution
  /// overhead rather than parallel speedup.
  double modeled_virtual_s = 0;
  u64 edges_in = 0;          ///< dovetail edges entering reduction
  u64 edges_removed = 0;
  u64 edges_surviving = 0;
  u64 unitigs = 0;
  double seq_removed_per_s = 0;   ///< edges_removed / sequential_s
  double dist_removed_per_s = 0;  ///< edges_removed / distributed_s
};

/// Run both reductions on the workload and cross-check their surviving sets.
inline SgraphBenchResult measure_sgraph_reduction(const SgraphWorkload& w, int ranks,
                                                  int reps,
                                                  const sgraph::StringGraphConfig& cfg) {
  SgraphBenchResult out;

  // --- sequential oracle, timed end to end: classify the raw records, drop
  // contained endpoints, consolidate to the best record per pair
  // (OverlapGraph::from_alignments), reduce, and lay out unitigs — the
  // exact job the distributed stage below performs from the same input.
  std::vector<graph::LiveEdge> oracle;
  {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      util::WallTimer t;
      std::set<u64> contained;
      std::vector<align::AlignmentRecord> dovetails;
      for (const auto& rec : w.records) {
        if (rec.rid_a == rec.rid_b || rec.score < cfg.min_overlap_score) continue;
        auto geom = sgraph::classify_alignment(
            rec, w.read_lengths[static_cast<std::size_t>(rec.rid_a)],
            w.read_lengths[static_cast<std::size_t>(rec.rid_b)], cfg.fuzz);
        if (geom.cls == sgraph::EdgeClass::kContainedA) contained.insert(rec.rid_a);
        if (geom.cls == sgraph::EdgeClass::kContainedB) contained.insert(rec.rid_b);
        if (geom.cls == sgraph::EdgeClass::kDovetail) dovetails.push_back(rec);
      }
      std::vector<align::AlignmentRecord> kept;
      for (const auto& rec : dovetails) {
        if (contained.count(rec.rid_a) || contained.count(rec.rid_b)) continue;
        kept.push_back(rec);
      }
      auto g = graph::OverlapGraph::from_alignments(kept, w.read_lengths.size());
      u64 removed = g.transitive_reduction();
      auto live = g.live_edges();
      std::vector<sgraph::DovetailEdge> live_dovetails;
      live_dovetails.reserve(live.size());
      for (const auto& e : live) {
        sgraph::DovetailEdge d{};
        d.lo = e.lo;
        d.hi = e.hi;
        d.overlap_len = e.overlap_len;
        d.score = e.score;
        d.same_orientation = e.same_orientation;
        live_dovetails.push_back(d);
      }
      auto layout = sgraph::extract_unitigs(live_dovetails);
      best = std::min(best, t.seconds());
      if (r == 0) {
        out.edges_in = g.num_edges() + removed;
        out.edges_removed = removed;
        out.unitigs = layout.unitigs.size();
        oracle = std::move(live);
      }
    }
    out.sequential_s = best;
  }

  // --- distributed stage: records spread round-robin (as stage 4 leaves
  // them), one World per rep so collective state starts cold each time. The
  // per-rank ReadStores (which copy every read sequence) are built once —
  // that is ingest-time setup, not stage-5 work.
  {
    std::vector<io::Read> reads(w.read_lengths.size());
    for (std::size_t i = 0; i < reads.size(); ++i) {
      reads[i].gid = i;
      // std::string("b").append(...) sidesteps GCC 12's -Wrestrict false
      // positive (PR105329) on `const char* + std::string&&` at -O3.
      reads[i].name = std::string("b").append(std::to_string(i));
      reads[i].seq.assign(w.read_lengths[i], 'A');
    }
    io::ReadPartition partition(w.read_lengths, ranks);
    std::vector<std::vector<align::AlignmentRecord>> per_rank(
        static_cast<std::size_t>(ranks));
    for (std::size_t i = 0; i < w.records.size(); ++i) {
      per_rank[i % static_cast<std::size_t>(ranks)].push_back(w.records[i]);
    }
    std::vector<io::ReadStore> stores;
    stores.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) stores.emplace_back(reads, partition, r);
    double best = 1e300;
    std::vector<sgraph::DovetailEdge> surviving;
    for (int r = 0; r < reps; ++r) {
      comm::World world(ranks);
      std::vector<netsim::RankTrace> traces(static_cast<std::size_t>(ranks));
      std::vector<sgraph::StringGraphShard> shards(static_cast<std::size_t>(ranks));
      util::WallTimer t;
      world.run([&](comm::Communicator& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        core::StageContext ctx{comm, traces[rank]};
        ctx.attach();
        shards[rank] =
            sgraph::run_string_graph_stage(ctx, stores[rank], per_rank[rank], cfg);
      });
      auto assembled = sgraph::finalize_string_graph(std::move(shards));
      const double secs = t.seconds();
      best = std::min(best, secs);
      if (r == 0) {
        surviving = std::move(assembled.surviving_edges);
        DIBELLA_CHECK(assembled.layout.unitigs.size() == out.unitigs,
                      "sgraph bench: distributed unitig count diverged from oracle");
        int rpn = 1;
        for (int d = 2; d <= std::min(4, ranks); ++d) {
          if (ranks % d == 0) rpn = d;
        }
        netsim::CostModel model(netsim::cori(), netsim::Topology{ranks / rpn, rpn});
        auto report = model.evaluate(traces, bench_costs());
        out.modeled_virtual_s = report.stage("sgraph").total_virtual();
      }
    }
    out.distributed_s = best;
    out.edges_surviving = surviving.size();

    // Checksum: the two reductions must agree edge for edge.
    DIBELLA_CHECK(surviving.size() == oracle.size(),
                  "sgraph bench: distributed surviving count diverged from oracle");
    for (std::size_t i = 0; i < surviving.size(); ++i) {
      DIBELLA_CHECK(surviving[i].lo == oracle[i].lo && surviving[i].hi == oracle[i].hi &&
                        surviving[i].overlap_len == oracle[i].overlap_len,
                    "sgraph bench: distributed surviving set diverged from oracle");
    }
  }
  if (out.sequential_s > 0) {
    out.seq_removed_per_s = static_cast<double>(out.edges_removed) / out.sequential_s;
  }
  if (out.distributed_s > 0) {
    out.dist_removed_per_s = static_cast<double>(out.edges_removed) / out.distributed_s;
  }
  return out;
}

}  // namespace dibella::benchx
