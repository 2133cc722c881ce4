#pragma once
/// \file alignment_spill.hpp
/// External sort/merge of alignment records — the LAsort/LAmerge analog of
/// the pipeline's stage 4. Every stage-4 block round (exactly one at
/// --blocks=1) radix-sorts its records by (rid_a, rid_b) and spills them as
/// one framed binary run file; stage 5, the final PAF, and the eval oracle
/// then consume a k-way merge of the runs — there is no resident record
/// vector on any path.
///
/// Run file framing: a magic word and payload length up front, the raw
/// trivially-copyable records, and a trailing CRC32 of the record bytes,
/// which must end the file. SpillMergeSource validates the frame as it
/// streams, so a truncated, bit-flipped, or overlong run file fails with a
/// clear error naming the file instead of feeding garbage records into the
/// merge. The same format carries the stage-4 checkpoint payloads
/// (core/checkpoint.hpp), which a resumed run adopts as its runs.
///
/// File lifecycle: one directory per pipeline run (`dibella-spill-<pid>-<seq>`
/// under the configured spill dir or the system temp dir), deterministic run
/// names `align.r<rank>.<run>.bin` inside it, everything removed when the
/// spill set is destroyed. Adopted runs live outside it and are never
/// removed. Creating a spill set also reclaims orphaned `dibella-spill-*`
/// directories whose owning process is gone (a crashed or killed run cannot
/// clean up after itself).
///
/// Merge totality: every (rid_a, rid_b) pair is produced by exactly one rank
/// in exactly one block round (the pair's task owner and the remote read's
/// block fix both), so the runs' key sets are disjoint and the merged order
/// is one total (rid_a, rid_b) order for any block or rank count.

#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "align/record_stream.hpp"
#include "util/common.hpp"

namespace dibella::core {

/// Magic word opening every spill run / checkpoint record file ("DBSP").
inline constexpr u32 kSpillRunMagic = 0x44425350u;

/// Write `sorted` records to `path` in the framed run format (magic, payload
/// length, records, CRC32). Returns the payload byte count.
u64 write_alignment_run(const std::string& path,
                        const std::vector<align::AlignmentRecord>& sorted);

/// Stream `source` to `path` in the framed run format without materializing
/// the records (the header is patched once the record count is known).
/// Returns the payload byte count.
u64 write_alignment_run(const std::string& path, align::RecordSource& source);

/// Delete `dibella-spill-<pid>-<seq>` directories under `parent_dir` whose
/// owning process no longer exists. Returns the number of directories
/// reclaimed. Best-effort: unreadable directories are skipped.
std::size_t reclaim_orphan_spill_dirs(const std::string& parent_dir);

/// Owns a run directory of sorted alignment-record spill files.
/// add_run is thread-safe (ranks are threads); everything else is intended
/// for the single-threaded merge phase after World::run returns.
class AlignmentSpillSet {
 public:
  /// Create the run directory under `dir_hint` (empty = system temp dir),
  /// reclaiming any orphaned spill directories of dead processes found there.
  explicit AlignmentSpillSet(const std::string& dir_hint = "");
  ~AlignmentSpillSet();

  AlignmentSpillSet(const AlignmentSpillSet&) = delete;
  AlignmentSpillSet& operator=(const AlignmentSpillSet&) = delete;

  /// Spill one run of records already sorted by (rid_a, rid_b). Empty runs
  /// are dropped (no file). Thread-safe. Returns the payload bytes written
  /// (0 for a dropped empty run) — the caller's `spill:write` span arg.
  u64 add_run(int rank, const std::vector<align::AlignmentRecord>& sorted);

  /// Register an existing framed run file (a stage-4 checkpoint payload) as
  /// one of `rank`'s runs. The file is streamed once to validate its frame
  /// and is neither owned nor removed by the set, nor counted as spilled.
  /// Thread-safe. Returns the run's record count.
  u64 adopt_run(int rank, const std::string& path);

  /// Paths of rank `rank`'s runs, in spill order (stage-5 input).
  std::vector<std::string> rank_runs(int rank) const;

  /// Paths of every run (global merge input), in (rank, spill order).
  std::vector<std::string> all_runs() const;

  const std::string& dir() const { return dir_; }
  /// Payload bytes and run files this set wrote (adopted runs excluded).
  u64 spill_bytes() const;
  u64 run_count() const;

 private:
  struct RunInfo {
    int rank;
    std::string path;
  };
  std::string dir_;
  mutable std::mutex mu_;
  std::vector<RunInfo> runs_;
  std::vector<u32> next_run_index_;  // per rank, for deterministic names
  u64 bytes_ = 0;
  u64 spilled_runs_ = 0;
};

/// K-way merge of sorted run files by (rid_a, rid_b), buffered reads.
/// Validates each run's frame while streaming: a bad magic word fails at
/// open; a truncated payload, CRC mismatch, or bytes after the CRC32
/// trailer fail at the point they are detected, naming the file.
class SpillMergeSource final : public align::RecordSource {
 public:
  explicit SpillMergeSource(const std::vector<std::string>& run_paths,
                            std::size_t buffer_records = 4096);
  bool next(align::AlignmentRecord& out) override;

 private:
  struct Run {
    std::ifstream in;
    std::string path;
    std::vector<align::AlignmentRecord> buffer;
    std::size_t pos = 0;
    u64 remaining_bytes = 0;  ///< payload bytes not yet read
    u32 crc = 0;              ///< running CRC32 of payload bytes read so far
    bool eof = false;
    bool refill(std::size_t buffer_records);
    const align::AlignmentRecord& head() const { return buffer[pos]; }
  };
  std::vector<std::unique_ptr<Run>> runs_;
  std::size_t buffer_records_;
};

}  // namespace dibella::core
