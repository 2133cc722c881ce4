#pragma once
/// \file exchange_record.hpp
/// Per-exchange communication accounting.
///
/// Every Exchanger flush/wait pair a rank executes produces one
/// ExchangeRecord describing exactly what an MPI implementation would have
/// put on the wire: the destination-resolved byte counts of a batched
/// irregular all-to-all (the wire pattern of MPI_Alltoallv). The
/// Communicator hands each record to its record sink and keeps none; the
/// pipeline's sink stores it in the rank's netsim::RankTrace, whose
/// exchange events the netsim cost model replays against a platform
/// description (Table 1) to produce the paper's cross-architecture exchange
/// times — see netsim/cost_model.hpp.
///
/// Self-destination bytes are never recorded: a rank's payload to itself
/// stays in memory and an MPI implementation would not put it on the wire,
/// so `bytes_to_peer[self]` is always 0.

#include <string>
#include <vector>

#include "util/common.hpp"

namespace dibella::comm {

/// One rank's view of one exchange.
struct ExchangeRecord {
  u64 seq = 0;                   ///< 0-based index among this rank's exchanges in one World::run
  std::string stage;             ///< pipeline stage tag active at call time
  std::vector<u64> bytes_to_peer;  ///< bytes this rank sent to each peer (size P, self = 0)
  double wall_seconds = 0.0;     ///< measured wall time the rank was blocked in wait()
  /// Measured wall time between flush_async() and wait() during which the
  /// exchange was in flight while this rank computed. The cost model's
  /// exposed/hidden split is virtual (trace-derived); this is the measured
  /// counterpart.
  double hidden_wall_seconds = 0.0;
  /// Replay retransmissions this rank requested while receiving this batch
  /// (nonzero only under injected transport faults).
  u64 retries = 0;

  u64 total_bytes() const {
    u64 s = 0;
    for (u64 b : bytes_to_peer) s += b;
    return s;
  }
};

}  // namespace dibella::comm
