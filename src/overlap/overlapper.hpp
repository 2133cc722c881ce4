#pragma once
/// \file overlapper.hpp
/// Pipeline stage 3 (§8): overlap detection from the distributed hash table.
///
/// Each rank traverses its hash-table partition independently (Algorithm 1):
/// every retained k-mer's occurrence list contributes all pairs of distinct
/// reads sharing it. Each (pair, seed) discovery is an overlap task, routed
/// to the owner of one of its two reads chosen by the paper's odd/even
/// heuristic (so the task's destination already holds one read locally,
/// halving the read movement of stage 4). Tasks travel in batched irregular
/// all-to-alls; the receiving rank groups seeds per pair and applies the
/// seed policy.
///
/// Staging: each (pair, seed) discovery is one 16-byte OverlapTask, a u64
/// sort key and the two positions. The key packs the read pair and the
/// orientation as (rid_a << 33) | (rid_b << 1) | (same_orientation ^ 1)
/// (PairKeys), so one stable radix sort of the keys groups a destination's
/// batch by pair, each pair's same-orientation seeds first. The key bounds
/// the read count below 2^31, checked once per stage run; positions keep
/// their full u32 range.
///
/// Wire format: pair runs. Each pack call stages the batch's tasks per
/// destination, groups them by read pair, and posts one run per pair. Every
/// field is an unsigned LEB128 varint (7 bits per byte, low group first, at
/// most 10 bytes), so one codec covers any read-id width:
///
///   run  := Δrid_a  rid_b  count  seed{count}       (count >= 1)
///   seed := pos_a  (pos_b << 1 | same_orientation)
///
/// Within one sender's payload of one batch, runs ascend strictly by
/// (rid_a, rid_b) with rid_a < rid_b, and Δrid_a is rid_a minus the
/// previous run's rid_a (the first run's is rid_a itself). A dense-seed
/// pair (hundreds of shared k-mers) costs one header per batch and ~4-6
/// bytes per seed instead of a fixed-width record per seed. The receiver
/// validates every byte of each payload on arrival and keeps the validated
/// bytes as they are (PairSeedTable), so received seeds stay at wire
/// density until consolidation. At the end, a k-way merge of the payloads
/// decodes each pair's seeds straight into packed sort keys (SeedSorter),
/// which are sorted and deduplicated under filter_seeds' total order before
/// the seed policy runs once per pair, so the tasks do not depend on the
/// order seeds arrive in.

#include <vector>

#include "comm/exchanger.hpp"
#include "core/stage_context.hpp"
#include "dht/local_table.hpp"
#include "io/read_store.hpp"
#include "overlap/seed_filter.hpp"
#include "util/common.hpp"
#include "util/radix_sort.hpp"

namespace dibella::overlap {

/// Consolidated alignment task: a read pair and its (filtered) seeds.
/// Invariant: rid_a < rid_b.
struct AlignmentTask {
  u64 rid_a = 0;
  u64 rid_b = 0;
  std::vector<SeedPair> seeds;
};

/// The staged task's sort key: (rid_a << 33) | (rid_b << 1) |
/// (same_orientation ^ 1), for rid_a < rid_b < kMaxReads. Keys ascend by
/// (rid_a, rid_b), then same orientation first. rid_a takes the top 31 bits
/// and rid_b the 32 below it, so a run's read count is bounded (check_reads);
/// the radix sort gives no digit to the bits every key of a batch leaves
/// constant, so a small read count costs only the bits it uses.
struct PairKeys {
  static constexpr u64 kMaxReads = (u64{1} << 31) - 1;

  /// Throws dibella::Error when `reads` exceeds kMaxReads.
  static void check_reads(u64 reads);

  /// The key of a pair and orientation. The caller guarantees
  /// rid_a < rid_b < kMaxReads and same_orientation <= 1.
  static u64 key(u64 rid_a, u64 rid_b, u8 same_orientation) {
    return (rid_a << 33) | (rid_b << 1) | (same_orientation ^ 1u);
  }
  /// Keys of one pair share this value; it ascends with (rid_a, rid_b).
  static u64 pair(u64 key) { return key >> 1; }
  static u64 rid_a(u64 key) { return key >> 33; }
  static u64 rid_b(u64 key) { return (key >> 1) & 0xFFFFFFFFu; }
  static u8 same_orientation(u64 key) { return static_cast<u8>((key & 1u) ^ 1u); }
};

/// One (pair, seed) discovery of pair formation, staged for its owner: the
/// pair and orientation as a PairKeys key, and the seed's position in each
/// read. 16 bytes, so a batch's radix passes move half what a task of two
/// u64 read ids would.
struct OverlapTask {
  u64 key = 0;
  u32 pos_a = 0;
  u32 pos_b = 0;
};
static_assert(sizeof(OverlapTask) == 16);

struct OverlapStageConfig {
  SeedFilterConfig seed_filter = SeedFilterConfig::one_seed();
  /// Exchange schedule. The consolidated tasks are identical either way
  /// (consolidation sorts the pairs and filter_seeds orders each pair's
  /// seeds).
  comm::Exchanger::Config exchange;
  /// Tasks formed per batch, summed over all destinations (a key's pairs are
  /// never split, so a batch may overshoot by one key's pair count).
  u64 batch_tasks = 1u << 18;
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

/// Append `tasks` (one destination's share of a batch) to `out` as pair
/// runs. A key whose pair is not rid_a < rid_b is an error. Sorts `tasks`
/// by key with one stable radix call in `scratch`'s buffers: grouped by
/// pair, each pair's same-orientation seeds first, each orientation's seeds
/// in their input order.
void encode_pair_runs(std::vector<OverlapTask>& tasks, std::vector<u8>& out,
                      util::RadixScratch<OverlapTask>& scratch);

/// Receiver side of stage 3: each sender's pair runs, validated on receipt
/// and kept as they arrived, at wire density (one owned copy of each
/// payload's bytes, ~4-6 bytes per seed). Each payload's runs ascend by
/// pair, so consolidation is a k-way merge of the payloads that decodes each
/// one front to back; no seed is decoded before then.
class PairSeedTable {
 public:
  /// Validate one sender's pair runs and keep a copy of them. Every byte is
  /// checked before any is kept: a truncated or overlong varint, a count
  /// larger than the remaining bytes could hold, a rid or position out of
  /// range, rid_a >= rid_b, or runs out of order throw dibella::Error, and
  /// leave the table as it was.
  void add_runs(const u8* data, std::size_t size);

  /// Seeds kept so far, over all pairs.
  u64 seeds() const { return seeds_; }

  /// Heap bytes the table holds: the kept payloads and their index.
  u64 held_bytes() const;

  /// The pairs ascending by (rid_a, rid_b), each with the seed policy
  /// applied. When `result` is given, fills pair_tasks_received /
  /// distinct_pairs / seeds_before_filter / seeds_after_filter (the
  /// consolidation counters of OverlapStageResult). Empties the table.
  std::vector<AlignmentTask> consolidate(const SeedFilterConfig& seed_filter,
                                         OverlapStageResult* result = nullptr);

 private:
  std::vector<std::vector<u8>> payloads_;  ///< validated, one per add_runs
  u64 seeds_ = 0;
};

/// Run stage 3 for this rank. Returns the alignment tasks this rank owns.
/// Collective.
std::vector<AlignmentTask> run_overlap_stage(core::StageContext& ctx,
                                             const dht::LocalKmerTable& table,
                                             const io::ReadPartition& partition,
                                             const OverlapStageConfig& cfg,
                                             OverlapStageResult* result = nullptr);

}  // namespace dibella::overlap
