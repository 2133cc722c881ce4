#pragma once
/// \file string_graph.hpp
/// Pipeline stage 5: distributed string-graph construction, rank-parallel
/// transitive reduction, and unitig/GFA layout — the assembly-prep step the
/// paper positions diBELLA's output for (§1, §11: the overlap graph "is more
/// robust to sequencing errors") and that the authors' follow-on work (Guidi
/// et al., Parallel String Graph Construction and Transitive Reduction)
/// distributes at scale.
///
/// The stage runs exactly **two** exchange rounds (it used to take five
/// rendezvous collectives, which made it latency-bound at small edge
/// counts). Per rank:
///  1. read lengths come from the partition's global length table
///     (io::ReadPartition::length — computed identically on every rank, so
///     no collective), and the rank's stage-4 alignment records are
///     classified into contained / dovetail / internal edges
///     (sgraph/edge_class.hpp);
///  2. **fused exchange**: one framed payload per peer carries this rank's
///     locally-discovered contained gid set (to every peer) together with
///     its dovetail edges (partitioned to the owner of each endpoint);
///     receivers union the contained sets and drop incident edges with a
///     contained endpoint — the verdicts every rank reaches are identical
///     (comm::Exchanger batches, overlapped with packing or bulk-
///     synchronous — identical results either way);
///  3. **ghost exchange**: each rank ships the adjacency list of every
///     owned vertex to the ranks owning its neighbours, giving both
///     endpoint owners the two-hop context around every incident edge;
///  4. reduction is a per-rank CSR adjacency over owned + ghost vertices
///     with a masked min-plus-style row product per edge (sgraph/csr.hpp,
///     ELBA's formulation): edge (a, c) is transitive when some b
///     neighbours both a and c through strictly higher-ranked edges
///     (strict total order: overlap length, then endpoint pair). Verdicts
///     are evaluated against the *original* edge set and applied
///     simultaneously, so they are independent of evaluation order, rank
///     count, and schedule; both endpoint owners reach the same verdict,
///     which gives every rank the reduced adjacency of all its owned
///     vertices with no further communication;
///  5. **distributed unitig walk** (sgraph/unitig_walk.hpp): each rank
///     compresses its owned slice of the reduced graph into a WalkFragment
///     (terminal vertices, maximal interior runs, fully-owned cycles) and
///     keeps its owned surviving edges (owner of lo, sorted by (lo, hi)).
///
/// The per-rank shards assemble into the global layout *without a
/// collective*: finalize_string_graph concatenates the per-rank surviving
/// edge lists in rank order (contiguous gid ownership makes that the
/// canonical global (lo, hi) order) and stitches the walk fragments into
/// the exact unitig/component layout the old rank-0 sequential extraction
/// produced (pinned byte-identical by test).
///
/// All collectives are tagged stage "sgraph", so the netsim cost model
/// reports stage-5 compute and exposed/hidden exchange time alongside
/// stages 1-4.

#include <vector>

#include "align/record_stream.hpp"
#include "comm/exchanger.hpp"
#include "core/stage_context.hpp"
#include "io/read_store.hpp"
#include "sgraph/edge_class.hpp"
#include "sgraph/unitig.hpp"
#include "sgraph/unitig_walk.hpp"
#include "util/common.hpp"

namespace dibella::sgraph {

struct StringGraphConfig {
  /// Drop alignment records scoring below this before classification.
  i32 min_overlap_score = 0;
  /// End tolerance for contained/dovetail/internal classification.
  u32 fuzz = kDefaultFuzz;
  /// Schedule of the fused and ghost exchanges.
  /// Outputs are bitwise-identical either way.
  comm::Exchanger::Config exchange;
};

/// Per-rank stage counters. Ownership rules make each global quantity a
/// plain sum over ranks: records are counted where stage 4 produced them,
/// contained reads by their owner rank, graph edges by the owner of their
/// lower endpoint.
struct StringGraphStageResult {
  u64 records_in = 0;
  u64 self_overlaps = 0;          ///< rid_a == rid_b records (dropped)
  u64 below_min_score = 0;
  u64 internal_records = 0;
  u64 containment_records = 0;
  u64 dovetail_records = 0;
  u64 contained_reads = 0;        ///< contained gids owned by this rank
  /// Dovetail edge copies dropped for a contained endpoint, counted where
  /// the drop happens: at the source when its local containment evidence
  /// already condemns the edge, else at the receiving owner once the global
  /// union arrives. Diagnostic only — the rank split (and, because sources
  /// also deduplicate before the wire, the total) depends on how records
  /// were distributed.
  u64 edges_dropped_contained = 0;
  u64 edges_owned = 0;            ///< edges this rank decided (owner of lo)
  u64 edges_removed = 0;          ///< of edges_owned, marked transitive
  u64 edges_surviving = 0;
  u64 triangle_probes = 0;        ///< semiring merge steps (witness scan work)
};

/// One rank's share of the stage-5 products: the surviving edges it owns
/// (owner of lo, sorted by (lo, hi)) plus its walk fragment. Assemble the
/// global view with finalize_string_graph.
struct StringGraphShard {
  std::vector<DovetailEdge> surviving_edges;
  WalkFragment walk;
};

/// Global products, assembled from every rank's shard on the merge thread.
struct StringGraphOutput {
  std::vector<DovetailEdge> surviving_edges;  ///< canonical: sorted by (lo, hi)
  UnitigResult layout;
};

/// Run stage 5 for this rank over its stage-4 alignment records, consumed
/// as a forward stream (classification is a single pass, so block-mode
/// spill merges feed it without materializing the records). Collective.
/// Deterministic in (records, lengths, config) and independent of the rank
/// count, the communication schedule, and the record *grouping* (per-rank
/// record order does not affect the graph: incident edges are re-sorted and
/// deduplicated, and reduction verdicts are order-independent).
StringGraphShard run_string_graph_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    align::RecordSource& local_records, const StringGraphConfig& cfg,
    StringGraphStageResult* result = nullptr);

/// Vector convenience overload (the test and bench seam).
StringGraphShard run_string_graph_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    const std::vector<align::AlignmentRecord>& local_records,
    const StringGraphConfig& cfg, StringGraphStageResult* result = nullptr);

/// Assemble the global surviving edge list + layout from every rank's
/// shard (index = rank). Not a collective: runs on the merge thread after
/// the stage, replacing the old rank-0 gather. Concatenating the per-rank
/// edge lists in rank order yields the canonical global (lo, hi) order
/// because gid ownership is contiguous and ascending in rank.
StringGraphOutput finalize_string_graph(std::vector<StringGraphShard> shards);

}  // namespace dibella::sgraph
