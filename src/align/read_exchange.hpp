#pragma once
/// \file read_exchange.hpp
/// Stage 4a (§4, §9): "Redistribute and replicate reads (the original
/// strings) to match read-pair distribution."
///
/// The owner heuristic guarantees one read of every task is already local;
/// the other may live anywhere. Each rank sends its needed gids to the
/// owning ranks, which reply with the read strings. Received reads are
/// cached in the rank's ReadStore, replicating them for the
/// embarrassingly-parallel alignment compute.
///
/// Requests and replies travel in bounded batches on comm::Exchanger. Replies
/// marshal gid/length/characters into a single framed byte stream per peer,
/// so a ragged payload needs no separate header exchange. Overlapped (the
/// default), reply serialization is packed while the previous batch is in
/// flight and arrived reads are deserialized while the next one travels;
/// the bulk-synchronous schedule runs the same batches one at a time.
/// Identical replication either way.

#include <vector>

#include "comm/exchanger.hpp"
#include "core/stage_context.hpp"
#include "io/read_store.hpp"
#include "overlap/overlapper.hpp"
#include "util/common.hpp"

namespace dibella::align {

struct ReadExchangeConfig {
  /// Exchange schedule.
  comm::Exchanger::Config exchange;
  u64 batch_request_gids = 1u << 16;  ///< request gids per destination per batch
  u64 batch_reply_bytes = 1u << 20;   ///< serialized reply bytes per destination per batch
};

struct ReadExchangeResult {
  u64 reads_requested = 0;  ///< distinct remote gids this rank needed
  u64 reads_served = 0;     ///< read strings this rank sent to others
  u64 bytes_received = 0;   ///< sequence bytes received (replication volume)

  /// Fold in another round's result (block mode runs one per block).
  ReadExchangeResult& operator+=(const ReadExchangeResult& o) {
    reads_requested += o.reads_requested;
    reads_served += o.reads_served;
    bytes_received += o.bytes_received;
    return *this;
  }
};

/// Fetch every remote read referenced by `tasks` into `store`'s cache.
/// Collective.
ReadExchangeResult run_read_exchange(core::StageContext& ctx, io::ReadStore& store,
                                     const std::vector<overlap::AlignmentTask>& tasks,
                                     const ReadExchangeConfig& cfg = ReadExchangeConfig());

}  // namespace dibella::align
