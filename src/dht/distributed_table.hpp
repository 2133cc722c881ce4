#pragma once
/// \file distributed_table.hpp
/// Pipeline stage 2 (§7): distributed hash table construction.
///
/// The reads are parsed a second time, now carrying (read id, position,
/// orientation) metadata; each instance is routed to the same owner rank as
/// in stage 1 and inserted *only if the key is resident* (i.e. survived the
/// Bloom pass). Afterwards each partition is purged of false-positive
/// singletons and of k-mers above the high-frequency threshold m, leaving
/// the retained k-mers. Communication volume is ~2.5x stage 1 (k-mer +
/// metadata per instance) with an identical message pattern — the
/// cross-stage contrast the paper draws in §7/§10.

#include "comm/exchanger.hpp"
#include "core/stage_context.hpp"
#include "dht/local_table.hpp"
#include "io/read_store.hpp"
#include "sketch/sketch.hpp"
#include "util/common.hpp"

namespace dibella::dht {

struct HashTableStageConfig {
  int k = 17;
  /// Minimizer sketch applied to the k-mer scan. Must match stage 1's so
  /// the metadata pass samples exactly the keys the Bloom pass admitted.
  sketch::SketchConfig sketch;
  u64 batch_instances = 1u << 20;  ///< per-rank occurrences per batch
  u32 min_count = 2;               ///< below: singleton purge
  u32 max_count = 8;               ///< above: high-frequency purge (m)
  /// Exchange schedule. Identical output either way.
  comm::Exchanger::Config exchange;
  /// Threads sketching this rank's reads, as bloom::BloomStageConfig::workers.
  int workers = 1;
};

struct HashTableStageResult {
  u64 parsed_instances = 0;
  u64 received_instances = 0;
  u64 inserted_occurrences = 0;  ///< instances that matched a resident key
  u64 keys_before_purge = 0;
  u64 retained_keys = 0;   ///< this rank's keys after the purge
  u64 purged_keys = 0;
  u64 batches = 0;
};

/// The wire format of one k-mer instance (stage 2 payload and checkpoint
/// record): 24 bytes with no padding, so every byte shipped or CRC'd is a
/// defined field.
struct KmerInstance {
  kmer::Kmer km;
  u64 rid = 0;
  u32 pos = 0;
  u8 is_forward = 1;
  u8 reserved[3] = {};  ///< always zero
};
static_assert(sizeof(KmerInstance) == 24);
static_assert(std::has_unique_object_representations_v<KmerInstance>);

/// Run stage 2 for this rank. `table` must hold stage 1's candidate keys;
/// on return it holds only retained k-mers with their occurrence lists.
/// Collective.
HashTableStageResult run_hashtable_stage(core::StageContext& ctx,
                                         const io::ReadStore& reads,
                                         const HashTableStageConfig& cfg,
                                         LocalKmerTable& table);

}  // namespace dibella::dht
