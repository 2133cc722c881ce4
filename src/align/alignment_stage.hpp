#pragma once
/// \file alignment_stage.hpp
/// Pipeline stage 4 (§9): x-drop pairwise alignment of every task.
///
/// After the read exchange the computation is embarrassingly parallel: each
/// rank aligns its tasks locally, extending from each surviving seed and
/// keeping the pair's best alignment. The per-rank wall time is the load-
/// imbalance metric of Fig 8 — near-perfect balance in task *counts*, but
/// imperfect in *time* because read lengths differ and x-drop returns early
/// on divergent pairs.
///
/// Within a rank, the tasks are split the same way across a worker pool
/// (`AlignmentStageConfig::workers` threads): workers claim fixed-size
/// chunks of tasks from a shared cursor, so the uneven per-pair cost
/// balances itself, and the records are concatenated in chunk order, so the
/// output is byte-identical for every worker count.

#include <vector>

#include "align/scoring.hpp"
#include "core/stage_context.hpp"
#include "io/read_store.hpp"
#include "overlap/overlapper.hpp"
#include "util/common.hpp"

namespace dibella::align {

/// Final product of the pipeline: one aligned overlap.
struct AlignmentRecord {
  u64 rid_a = 0;
  u64 rid_b = 0;
  u8 same_orientation = 1;  ///< 0: b was reverse-complemented for alignment
  i32 score = 0;
  /// Aligned half-open spans. b coordinates refer to b's forward frame even
  /// for reverse-complement alignments (converted back before reporting).
  u32 a_begin = 0, a_end = 0;
  u32 b_begin = 0, b_end = 0;
  u32 seeds_explored = 0;

  friend bool operator==(const AlignmentRecord&, const AlignmentRecord&) = default;
};
static_assert(std::is_trivially_copyable_v<AlignmentRecord>);

struct AlignmentStageConfig {
  Scoring scoring;
  int xdrop = 25;
  /// Seed (k-mer) length the overlap stage used — needed to anchor
  /// extensions and to map reverse-complement seed coordinates.
  int k = 17;
  /// Report only alignments with score >= min_score (0 keeps everything).
  int min_score = 0;
  /// Colinear-chain each multi-seed pair (align/chain.hpp) and extend only
  /// the best chain's representative anchor, instead of extending every
  /// seed and keeping the best score. Off preserves the exhaustive per-seed
  /// sweep; the pipeline turns this on by default.
  bool chain = false;
  /// Threads aligning this rank's tasks, the calling (rank) thread included;
  /// >= 1. Records, result counters and the RankTrace compute units are the
  /// same for every value. Must be 1 for a block-mode store, whose lookups
  /// are single-threaded (io::ReadStore::get). The pipeline sets it from the
  /// CPUs per rank; it is not a user option.
  int workers = 1;
};

struct AlignmentStageResult {
  u64 pairs_aligned = 0;       ///< tasks processed
  u64 alignments_computed = 0; ///< seed extensions performed (Fig 7's unit)
  u64 dp_cells = 0;            ///< total DP cells (the real work metric)
  u64 records_kept = 0;        ///< alignments above min_score
  u64 chain_anchors = 0;        ///< pairs extended from a chain anchor
  u64 chain_dropped_seeds = 0;  ///< seeds subsumed by their pair's chain

  /// Fold in another round's result (block mode runs one per block).
  AlignmentStageResult& operator+=(const AlignmentStageResult& o) {
    pairs_aligned += o.pairs_aligned;
    alignments_computed += o.alignments_computed;
    dp_cells += o.dp_cells;
    records_kept += o.records_kept;
    chain_anchors += o.chain_anchors;
    chain_dropped_seeds += o.chain_dropped_seeds;
    return *this;
  }

  friend bool operator==(const AlignmentStageResult&, const AlignmentStageResult&) = default;
};

/// Align every task (reads must already be resident via run_read_exchange).
/// Purely local — no communication. Worker threads touch neither `ctx` nor
/// its spans, metrics or trace: the calling thread opens the one
/// `align:extend` span and records the stage's compute units. An exception
/// on any worker (e.g. a read neither local nor cached) is rethrown here
/// after every worker has stopped.
std::vector<AlignmentRecord> run_alignment_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    const std::vector<overlap::AlignmentTask>& tasks, const AlignmentStageConfig& cfg,
    AlignmentStageResult* result = nullptr);

}  // namespace dibella::align
