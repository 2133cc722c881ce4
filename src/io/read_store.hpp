#pragma once
/// \file read_store.hpp
/// Block distribution of reads across ranks.
///
/// As in the paper (§9): "the input reads are not ordered, and our algorithm
/// partitions them as uniformly as possible at the beginning of the
/// computation (by the read size in memory)". The partition is computed
/// identically on every rank from the global read-count/size information, so
/// gid -> owner lookups need no communication.

#include <algorithm>
#include <memory>
#include <vector>

#include "io/read.hpp"
#include "io/read_block.hpp"
#include "io/truth.hpp"

namespace dibella::io {

/// Out-of-core configuration for a ReadStore. `blocks == 1` is the in-memory
/// path (reads held as plain strings, no packing); `blocks > 1` packs the
/// local partition into that many 2-bit blocks and unpacks lazily.
/// `memory_budget_bytes` caps the unpacked residency (local blocks + remote
/// cache); 0 means no cap — blocks still load lazily but are never evicted.
/// At least two blocks always stay resident so callers may hold references
/// to two reads at once (the alignment inner loop's a/b pair).
struct BlockConfig {
  u32 blocks = 1;
  u64 memory_budget_bytes = 0;
};

/// Residency telemetry, surfaced per stage through PipelineCounters.
struct ReadStoreMemoryStats {
  u64 packed_bytes = 0;         ///< always-resident 2-bit footprint (0 when blocks==1)
  u64 resident_bytes = 0;       ///< unpacked sequence bytes currently resident
  u64 peak_resident_bytes = 0;  ///< high-water mark of resident_bytes
  u64 block_loads = 0;          ///< lazy unpack events
  u64 block_evictions = 0;      ///< budget-driven evictions
};

/// Contiguous-block partition of gids [0, N) over P ranks, weighted by
/// per-read sequence bytes.
///
/// The partition retains the global per-read length table it was built
/// from (shared, so copies stay cheap): every rank constructs the partition
/// from the same global length vector, which makes `length(gid)` a
/// zero-communication global lookup. Stage 5 classifies edges against both
/// endpoint lengths this way instead of allgathering lengths per run.
class ReadPartition {
 public:
  ReadPartition() = default;

  /// Build the partition from every read's sequence length (indexed by gid).
  /// Greedy contiguous split: rank boundaries advance once a rank has
  /// accumulated total/P bytes.
  ReadPartition(const std::vector<u64>& seq_lengths, int ranks);

  int ranks() const { return static_cast<int>(first_gid_.size()) - 1; }
  u64 total_reads() const { return first_gid_.empty() ? 0 : first_gid_.back(); }

  /// First gid owned by `rank` (range is [first_gid(rank), first_gid(rank+1))).
  u64 first_gid(int rank) const { return first_gid_[static_cast<std::size_t>(rank)]; }

  /// Number of reads owned by `rank`.
  u64 count(int rank) const {
    return first_gid_[static_cast<std::size_t>(rank) + 1] -
           first_gid_[static_cast<std::size_t>(rank)];
  }

  /// The rank owning read `gid`. Inline: stage 5 asks this (and `length`)
  /// per classified record and per routed edge, so the hot path must not
  /// pay an out-of-line call for a table lookup.
  int owner_of(u64 gid) const {
    DIBELLA_CHECK(gid < total_reads(), "owner_of: gid out of range");
    auto it = std::upper_bound(first_gid_.begin(), first_gid_.end(), gid);
    return static_cast<int>(it - first_gid_.begin()) - 1;
  }

  /// Sequence length of any read, owned or not (the global table the
  /// partition was computed from).
  u64 length(u64 gid) const {
    DIBELLA_CHECK(lengths_ && gid < lengths_->size(), "length: gid out of range");
    return (*lengths_)[static_cast<std::size_t>(gid)];
  }

 private:
  std::vector<u64> first_gid_;  // size ranks+1; first_gid_[ranks] == N
  std::shared_ptr<const std::vector<u32>> lengths_;  // gid-indexed, whole read set
};

/// A rank's view of the distributed read set: its owned block plus a cache of
/// remote reads fetched during the alignment stage's read exchange.
class ReadStore {
 public:
  ReadStore() = default;

  /// Construct rank `rank`'s store from the full read vector (reads are
  /// copied out of the owned block only). `all` must be gid-ordered.
  ReadStore(const std::vector<Read>& all, const ReadPartition& partition, int rank);

  /// Out-of-core variant: pack the owned block into `cfg.blocks` 2-bit
  /// packed sub-blocks; unpacked reads materialize lazily per block under
  /// the memory budget. With cfg.blocks == 1 this is the plain constructor.
  ReadStore(const std::vector<Read>& all, const ReadPartition& partition, int rank,
            const BlockConfig& cfg);

  int rank() const { return rank_; }
  const ReadPartition& partition() const { return partition_; }

  /// Number of out-of-core blocks (1 = in-memory path).
  u32 blocks() const { return block_cfg_.blocks; }

  u64 first_local_gid() const { return partition_.first_gid(rank_); }
  u64 local_count() const { return partition_.count(rank_); }

  bool is_local(u64 gid) const;

  /// Sequence of a locally-owned read. In block mode this lazily unpacks
  /// the containing block; the reference stays valid until two further
  /// block loads occur (at least two blocks are always resident).
  const Read& local_read(u64 gid) const;

  /// Sequence length of a locally-owned read without materializing it
  /// (always resident, even in block mode).
  u64 local_length(u64 gid) const;

  /// Add the remote reads fetched in the alignment read-exchange (one index
  /// rebuild per call).
  void cache_remote_bulk(std::vector<Read> rs);

  /// Look up a read by gid: local block first, then the remote cache.
  /// Throws when the read is neither local nor cached. On the in-memory path
  /// this only reads, so any number of threads may call it while nothing
  /// modifies the store. Block-mode lookups are single-threaded: they load,
  /// evict and LRU-stamp blocks, and a returned reference stays valid only
  /// until two further block loads. That is why stage 4 aligns with one
  /// worker in block mode (align::AlignmentStageConfig::workers).
  const Read& get(u64 gid) const;

  /// Number of remote reads currently cached (replication metric).
  std::size_t remote_cache_size() const { return remote_.size(); }
  void clear_remote_cache();

  /// Residency telemetry (meaningful in both modes; packed_bytes and the
  /// block counters are zero on the in-memory path).
  ReadStoreMemoryStats memory_stats() const;

  /// Attach the read set's ground-truth provenance (simulated datasets, or a
  /// loaded `reads.truth.tsv` sidecar). Shared, not copied: every rank's
  /// store points at the same table. The table must cover the whole gid
  /// space, not just this rank's block.
  void attach_truth(std::shared_ptr<const TruthTable> truth);

  /// The attached truth table, or nullptr when provenance is unknown
  /// (file-based input without a sidecar).
  const TruthTable* truth() const { return truth_.get(); }
  std::shared_ptr<const TruthTable> truth_ptr() const { return truth_; }

 private:
  int rank_ = 0;
  ReadPartition partition_;
  BlockConfig block_cfg_;
  std::vector<Read> local_;                  // in-memory path only (blocks == 1)
  std::vector<Read> remote_;                 // cached remote reads
  std::vector<std::size_t> remote_index_;    // sorted by gid -> index into remote_
  std::shared_ptr<const TruthTable> truth_;  // optional provenance (whole gid space)

  // Block mode. Packed blocks are always resident; `unpacked_` entries are
  // the lazily-materialized (and budget-evictable) residency units. Mutable
  // because lookups are logically const: ranks are threads but each owns its
  // store exclusively and looks reads up from one thread (see get()), so no
  // locking is needed.
  std::vector<PackedReadBlock> packed_blocks_;
  std::vector<u64> block_first_offset_;  // blocks+1 local offsets (block manifest)
  std::vector<u32> local_lengths_;       // per-read seq lengths, always resident
  mutable std::vector<std::unique_ptr<std::vector<Read>>> unpacked_;
  mutable std::vector<u64> lru_stamp_;   // per block; 0 = never touched
  mutable u64 lru_clock_ = 0;
  mutable u64 resident_local_bytes_ = 0;  // unpacked local seq bytes
  mutable u64 peak_resident_bytes_ = 0;
  mutable u64 block_loads_ = 0;
  mutable u64 block_evictions_ = 0;
  u64 remote_bytes_ = 0;  // unpacked remote-cache seq bytes

  const std::vector<Read>& loaded_block(u32 b) const;
  void note_peak() const;
  void rebuild_remote_index();
};

}  // namespace dibella::io
