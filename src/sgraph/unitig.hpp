#pragma once
/// \file unitig.hpp
/// Unitig extraction and GFA1 emission over a (reduced) string graph's
/// surviving edge set. `extract_unitigs` is the sequential oracle: stage 5
/// walks unitigs distributed (unitig_walk.hpp), and the differential tests
/// pin `stitch_unitigs` over its per-rank fragments to `extract_unitigs`
/// over the merged, canonically sorted edge list. The GFA writer reads that
/// same merged list, so both are byte-deterministic regardless of rank
/// count or schedule.
///
/// A unitig is a maximal simple path: every interior vertex has degree 2,
/// and a chain terminates at a tip (degree 1), a branch (degree >= 3), or —
/// for fully circular components — when the walk returns to its start.
/// Vertices are induced from the edge list, so every vertex has degree >= 1
/// (reads whose edges were all contained/internal simply do not appear).

#include <ostream>
#include <vector>

#include "io/read.hpp"
#include "sgraph/edge_class.hpp"
#include "util/common.hpp"

namespace dibella::sgraph {

/// One unitig chain: the read gids along the path, in walk order. A chain
/// may start and end at the same branch vertex (a loop hanging off it), in
/// which case that gid appears at both ends; `circular` is reserved for
/// components that are pure cycles (every vertex degree 2).
struct Unitig {
  std::vector<u64> reads;
  bool circular = false;  ///< the chain closes on itself (cycle component)
};

/// Per-connected-component roll-up of the reduced graph.
struct ComponentSummary {
  u64 reads = 0;
  u64 edges = 0;
  u64 unitigs = 0;
  u64 longest_unitig_reads = 0;
};

struct UnitigResult {
  std::vector<Unitig> unitigs;               ///< deterministic extraction order
  std::vector<ComponentSummary> components;  ///< dense ids, smallest-gid-first
};

/// Extract unitigs and component summaries from `edges`. The edge list must
/// be the canonical surviving set: lo < hi per edge, sorted by (lo, hi),
/// no duplicate pairs. Deterministic: chains are seeded in ascending gid
/// order from every non-degree-2 vertex, then remaining cycles from their
/// smallest gid.
UnitigResult extract_unitigs(const std::vector<DovetailEdge>& edges);

/// Serialize the graph as GFA1: an H header, one S line per vertex
/// (sequence elided as '*' with an LN tag, standard for overlap graphs),
/// and one L line per surviving edge with strands and an exact-match CIGAR
/// of the overlap length. `reads` must be gid-indexed and is only consulted
/// for the gids that appear in `edges`.
void write_gfa(std::ostream& os, const std::vector<DovetailEdge>& edges,
               const std::vector<io::Read>& reads);

/// Per-component summary as TSV (component, reads, edges, unitigs,
/// longest_unitig_reads) with a header row.
void write_component_summary(std::ostream& os, const UnitigResult& result);

/// Per-unitig chain export as TSV (unitig, circular, reads, gids with gids
/// comma-separated in walk order). This is the layout's coordinate hook:
/// joining each gid against a truth table (io::TruthTable / reads.truth.tsv)
/// maps every unitig back to genome intervals, which is exactly how
/// eval::score_unitigs measures breakpoints and contiguity.
void write_unitig_table(std::ostream& os, const UnitigResult& result);

}  // namespace dibella::sgraph
