#pragma once
/// \file checkpoint.hpp
/// Stage checkpoint/restart for the distributed pipeline.
///
/// After each of stages 1-4 completes, every rank persists a compact,
/// checksummed snapshot of the state the *next* stage needs — the candidate
/// key set (stage 1), the full k-mer table shard (stage 2), the owned
/// alignment tasks (stage 3), the sorted alignment records (stage 4) — and
/// rank 0 appends a completion line to the manifest once an empty exchange
/// round, which every rank enters only after writing its payload,
/// guarantees every payload is durable. A run restarted with --resume opens
/// the set, validates the run fingerprint (reads + the config fields that
/// determine the outputs; a checkpoint from a different input or parameter
/// set fails loudly), skips every completed stage, restores the
/// last-complete stage's state, and continues. Because downstream stages
/// canonicalize their inputs (the overlap stage sorts its consolidated
/// tasks; alignment records carry globally unique (rid_a, rid_b) keys), the
/// resumed run's PAF/GFA/eval outputs are byte-identical to an uninterrupted
/// run's, across rank counts and communication schedules.
///
/// Layout under the checkpoint directory:
///   manifest.tsv                     header + appended completion lines
///   stage<n>.<name>.r<rank>.bin      per-rank payloads
/// Stages 1-3 use a framed byte blob (magic, length, payload, CRC32) whose
/// payload is the records that stage ships on the wire, restored through
/// the stage's own receive path:
///   stage 1  the candidate keys as a flat kmer::Kmer array (insert_key);
///   stage 2  one dht::KmerInstance per stored occurrence, in traversal
///            order (insert_key + add_occurrence rebuild counts and order);
///   stage 3  the owned tasks as pair runs (overlap::encode_pair_runs;
///            PairSeedTable::add_runs + consolidate restore them).
/// Stage 4 reuses the spill-run record format (alignment_spill.hpp), so a
/// resumed run adopts each payload in place as its rank's spill run.
/// Stage 5 is never checkpointed: it is a pure function of the stage-4
/// records and rerunning it is cheaper than snapshotting graph state.
///
/// Graceful degradation rides on the same mechanism: when a rank is lost
/// past a checkpoint, the driver re-runs with --resume and the failed rank
/// listed as degraded — that rank restores *nothing* (its shard's state is
/// dropped), surviving shards restore normally, and the quality report
/// states the degradation honestly (eval.tsv's degraded_ranks row).

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace dibella::io {
struct Read;
}

namespace dibella::core {

struct PipelineConfig;

/// Pipeline stages in checkpoint order. kNone = nothing completed.
enum class CheckpointStage : u32 {
  kNone = 0,
  kBloom = 1,      ///< candidate key set
  kHashTable = 2,  ///< k-mer table shard (counts + occurrences)
  kOverlap = 3,    ///< owned alignment tasks
  kAlignment = 4,  ///< sorted alignment records (spill-run format)
};

const char* checkpoint_stage_name(CheckpointStage stage);

/// Fingerprint binding a checkpoint set to its run: CRC32 over the read
/// sequences, the rank count, and the config fields that determine the
/// pipeline's outputs (schedule knobs — overlap_comm, batch sizes,
/// blocks — are deliberately excluded: outputs are pinned invariant to
/// them, so a run may resume under a different schedule).
u32 checkpoint_fingerprint(const std::vector<io::Read>& reads,
                           const PipelineConfig& config, int ranks);

/// One run's checkpoint directory: manifest + per-rank stage payloads.
/// write_payload is thread-safe across ranks (distinct files, no shared
/// mutation); mark_complete is rank 0's alone, after the empty round.
class CheckpointSet {
 public:
  /// Create (or reset) the checkpoint directory for a fresh run and write
  /// the manifest header.
  static std::shared_ptr<CheckpointSet> start(const std::string& dir, u32 fingerprint,
                                              int ranks);

  /// Open an existing checkpoint directory for --resume. Throws Error when
  /// the manifest is missing/malformed or its fingerprint or rank count does
  /// not match this run.
  static std::shared_ptr<CheckpointSet> open(const std::string& dir, u32 fingerprint,
                                             int ranks);

  /// Last stage the manifest records as complete, without validating
  /// fingerprints (the driver's "is degradation even possible?" probe).
  /// kNone when the directory or manifest does not exist.
  static CheckpointStage probe_last_complete(const std::string& dir);

  CheckpointStage last_complete() const { return last_complete_; }
  const std::string& dir() const { return dir_; }

  /// Path of `rank`'s payload file for `stage` (stage 4 writes the spill-run
  /// format here directly; stages 1-3 go through write_payload).
  std::string payload_path(CheckpointStage stage, int rank) const;

  /// Persist one rank's framed payload blob for `stage`.
  void write_payload(CheckpointStage stage, int rank, const std::vector<u8>& bytes) const;

  /// Read back and validate one rank's payload blob. Throws Error on a
  /// missing file, bad frame, or CRC mismatch.
  std::vector<u8> read_payload(CheckpointStage stage, int rank) const;

  /// Append the completion line for `stage` to the manifest. Call only after
  /// an empty exchange round has made every rank's payload durable.
  void mark_complete(CheckpointStage stage);

  /// Checkpoint I/O accounting (payload bytes only; frame overhead and the
  /// manifest are noise). Summed over ranks and stages; deterministic in
  /// (reads, config), so it goes into counters.tsv's `checkpoint_*` rows
  /// (PipelineOutput::checkpoint_io).
  struct IoStats {
    u64 payloads_written = 0;
    u64 bytes_written = 0;
    u64 payloads_read = 0;
    u64 bytes_read = 0;
  };
  IoStats io_stats() const {
    std::lock_guard<std::mutex> lock(io_mu_);
    return io_;
  }

 private:
  CheckpointSet(std::string dir, u32 fingerprint, int ranks)
      : dir_(std::move(dir)), fingerprint_(fingerprint), ranks_(ranks) {}

  std::string manifest_path() const;

  std::string dir_;
  u32 fingerprint_;
  int ranks_;
  CheckpointStage last_complete_ = CheckpointStage::kNone;
  mutable std::mutex io_mu_;  ///< ranks are threads; write_payload is concurrent
  mutable IoStats io_;
};

}  // namespace dibella::core
