#pragma once
/// \file overlapper.hpp
/// Pipeline stage 3 (§8): overlap detection from the distributed hash table.
///
/// Each rank traverses its hash-table partition independently (Algorithm 1):
/// every retained k-mer's occurrence list contributes all pairs of distinct
/// reads sharing it. Each pair is an alignment task, buffered for the owner
/// of one of its two reads chosen by the paper's odd/even heuristic (so the
/// task's destination already holds one read locally, halving the read
/// movement of stage 4). Tasks travel in batched irregular all-to-alls; the
/// receiving rank consolidates per-pair seed lists and applies the seed
/// policy.

#include <vector>

#include "comm/exchanger.hpp"
#include "core/stage_context.hpp"
#include "dht/local_table.hpp"
#include "io/read_store.hpp"
#include "overlap/seed_filter.hpp"
#include "util/common.hpp"

namespace dibella::overlap {

/// Consolidated alignment task: a read pair and its (filtered) seeds.
/// Invariant: rid_a < rid_b.
struct AlignmentTask {
  u64 rid_a = 0;
  u64 rid_b = 0;
  std::vector<SeedPair> seeds;
};

/// Wire format of a single (pair, seed) discovery (pre-consolidation).
struct OverlapTaskWire {
  u64 rid_a = 0;
  u64 rid_b = 0;
  u32 pos_a = 0;
  u32 pos_b = 0;
  u8 same_orientation = 1;
};
static_assert(std::is_trivially_copyable_v<OverlapTaskWire>);

struct OverlapStageConfig {
  SeedFilterConfig seed_filter = SeedFilterConfig::one_seed();
  /// Exchange schedule and chunk granularity. The consolidated tasks are
  /// identical either way (consolidation sorts).
  comm::Exchanger::Config exchange;
  u64 batch_tasks = 1u << 18;  ///< wire tasks per destination per batch
};

struct OverlapStageResult {
  u64 retained_kmers = 0;       ///< keys traversed in this rank's partition
  u64 pair_tasks_formed = 0;    ///< (pair, seed) tasks buffered for owners
  u64 pair_tasks_received = 0;  ///< tasks routed to this rank
  u64 distinct_pairs = 0;       ///< consolidated pairs owned by this rank
  u64 seeds_before_filter = 0;
  u64 seeds_after_filter = 0;
};

/// The paper's Algorithm 1 owner heuristic: route task (ra, rb) to the owner
/// of ra or rb such that, over unordered random IDs, tasks spread evenly.
int task_owner_read(u64 ra, u64 rb);

/// Consolidate received wire tasks into per-pair AlignmentTasks and apply
/// the seed policy: normalize each task to rid_a < rid_b, sort the flat
/// vector, then group equal-pair runs — no node-based map. Tasks come back
/// sorted by (rid_a, rid_b). When `result` is given, fills
/// pair_tasks_received / distinct_pairs / seeds_before_filter /
/// seeds_after_filter (the consolidation counters of OverlapStageResult).
std::vector<AlignmentTask> consolidate_tasks(std::vector<OverlapTaskWire> incoming,
                                             const SeedFilterConfig& seed_filter,
                                             OverlapStageResult* result = nullptr);

/// Sort canonicalized (rid_a <= rid_b) wire tasks by the full
/// (rid_a, rid_b, pos_a, pos_b, same_orientation) tuple — the deterministic
/// order consolidate_tasks groups on. Hybrid: one scan measures the keys'
/// significant bytes (= the radix passes a chained `util::radix_sort_u64`
/// would actually run, after constant-byte skipping), then picks the LSD
/// radix chain or a comparison sort — radix's linear passes win on small
/// inputs and narrow keys, but on large inputs with wide keys its data
/// movement (each pass streams the whole 24-byte element array) loses to
/// O(n log n) comparisons. Exposed for the kernel bench.
void sort_wire_tasks(std::vector<OverlapTaskWire>& tasks);

/// Run stage 3 for this rank. Returns the alignment tasks this rank owns.
/// Collective.
std::vector<AlignmentTask> run_overlap_stage(core::StageContext& ctx,
                                             const dht::LocalKmerTable& table,
                                             const io::ReadPartition& partition,
                                             const OverlapStageConfig& cfg,
                                             OverlapStageResult* result = nullptr);

}  // namespace dibella::overlap
