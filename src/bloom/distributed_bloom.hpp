#pragma once
/// \file distributed_bloom.hpp
/// Pipeline stage 1 (§6): distributed Bloom filter construction.
///
/// Every rank parses its reads into canonical k-mers and routes each to its
/// owner rank (hash % P) in memory-bounded batches via the irregular
/// all-to-all. The owner inserts into its Bloom filter partition; a k-mer
/// seen for the (apparent) second time initializes a key in the owner's
/// local hash-table partition. Roughly (P-1)/P of all k-mer instances cross
/// the network — the paper's dominant stage-1 communication volume.

#include "comm/exchanger.hpp"
#include "core/stage_context.hpp"
#include "dht/local_table.hpp"
#include "io/read_store.hpp"
#include "sketch/sketch.hpp"
#include "util/common.hpp"

namespace dibella::bloom {

struct BloomStageConfig {
  int k = 17;
  /// Minimizer sketch applied to the k-mer scan. Must match stage 2's so
  /// both stages sample (and therefore route) the identical seed set.
  sketch::SketchConfig sketch;
  /// Per-rank k-mer occurrences buffered per exchange batch. The
  /// memory bound of the streaming pass (§4): k-mers are never all resident.
  u64 batch_kmers = 1u << 20;
  double bloom_fpr = 0.05;
  /// Assumed per-base error rate for the a-priori cardinality estimate.
  double assumed_error_rate = 0.15;
  /// Exchange schedule. Identical output either way.
  comm::Exchanger::Config exchange;
  /// Threads sketching this rank's reads, the calling (rank) thread
  /// included; >= 1. The posted batches, and so the filter, the table and
  /// the compute units, are the same for every value. Must be 1 for a
  /// block-mode store. The pipeline gives it stage 4's worker count.
  int workers = 1;
};

struct BloomStageResult {
  u64 parsed_instances = 0;    ///< seed occurrences emitted from this rank's reads
  u64 windows_scanned = 0;     ///< k-mer windows examined (== parsed when dense)
  u64 received_instances = 0;  ///< occurrences routed to this rank (it owns them)
  u64 candidate_keys = 0;      ///< keys initialized in this rank's table partition
  u64 bloom_bits = 0;          ///< Bloom partition size
  u64 bloom_set_bits = 0;      ///< occupancy after the pass
  u64 batches = 0;             ///< exchange batches executed
};

/// Hash salt reserved for owner-rank assignment (uniform k-mer load balance,
/// identical in stages 1 and 2 so k-mers land on the same partitions).
inline constexpr u64 kOwnerSalt = 0x0B7A1A5C;

/// Owner rank of a k-mer.
inline int kmer_owner(const kmer::Kmer& km, int ranks) {
  return static_cast<int>(km.hash(kOwnerSalt) % static_cast<u64>(ranks));
}

/// Run stage 1 for this rank. `table` receives candidate (non-singleton)
/// keys. Collective: every rank of the communicator must call this.
BloomStageResult run_bloom_stage(core::StageContext& ctx, const io::ReadStore& reads,
                                 const BloomStageConfig& cfg,
                                 dht::LocalKmerTable& table);

}  // namespace dibella::bloom
