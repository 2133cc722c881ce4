#pragma once
/// \file world.hpp
/// The SPMD execution substrate: P "ranks" run as OS threads inside one
/// process, communicating only through comm::Exchanger rounds on a
/// Communicator (see communicator.hpp).
///
/// This substitutes for MPI in the paper's design (README "Communication
/// substrate"): pipeline code is written exactly as an MPI program would
/// be — per-destination buffers, irregular all-to-all exchanges — and every
/// byte that would cross the network is recorded per (src, dst) pair for
/// the network cost model. Payloads move through per-peer mailbox slots as
/// CRC-framed messages tagged with the sender's collective epoch, one per
/// peer per flush: a flush deposits for its destinations without blocking
/// and wait() consumes from its sources as their deposits arrive, so ranks
/// synchronize only pairwise and only on the data they actually need —
/// which is what lets comm::Exchanger overlap an in-flight batch with local
/// compute. An empty round is the whole-world barrier. Rank failures (and
/// exchange timeouts, i.e. mismatched collective sequences) poison the
/// world so sibling ranks blocked in a wait() terminate instead of
/// deadlocking, and the first exception is rethrown from World::run.

#include <functional>
#include <memory>
#include <vector>

#include "util/common.hpp"

namespace dibella::comm {

class Communicator;
class FaultPlan;
namespace detail {
class WorldState;
}

/// Base of every comm-substrate failure that poisons the World: exchange
/// timeouts (mismatched collective sequences), exhausted message
/// retransmissions, and injected rank aborts (RankFailure, fault.hpp). The
/// driver maps this family to its own exit code (poisoned-world abort)
/// distinct from ordinary runtime errors.
class CommFailure : public Error {
 public:
  using Error::Error;
};

/// Thrown inside sibling ranks when some rank failed; World::run swallows
/// these and rethrows the originating exception.
class WorldPoisoned : public CommFailure {
 public:
  WorldPoisoned() : CommFailure("world poisoned by failure on another rank") {}
};

/// Per-receiver tallies of the self-healing exchange protocol (summed over
/// ranks by World::comm_fault_stats): messages redelivered from the sender's
/// replay buffer after a drop/corruption, duplicate deliveries discarded by
/// the idempotent receive path, and CRC/length validation failures.
struct CommFaultStats {
  u64 retries = 0;          ///< replay-buffer retransmissions requested
  u64 redeliveries = 0;     ///< duplicate message copies discarded
  u64 corrupt_chunks = 0;   ///< messages failing CRC32/length validation
};

/// A fixed-size group of SPMD ranks.
class World {
 public:
  /// Create a world of `ranks` ranks. A mailbox wait exceeding
  /// `timeout_seconds` aborts the run (guards against mismatched collective
  /// sequences, which would otherwise deadlock).
  explicit World(int ranks, double timeout_seconds = 300.0);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return ranks_; }

  /// Run `fn(comm)` on every rank concurrently; returns when all ranks
  /// complete. Rethrows the first rank exception, if any. A World can run
  /// multiple successive SPMD regions; each gives every rank a fresh
  /// Communicator, so collective epochs, fault indices and exchange record
  /// seqs restart at 0.
  void run(const std::function<void(Communicator&)>& fn);

  /// Install a deterministic fault plan (fault.hpp): injected transport
  /// faults and rank aborts fire during subsequent run() calls. Faults are
  /// one-shot across the plan's lifetime, so a degraded re-run over the same
  /// World does not re-trigger them. Pass nullptr to clear.
  void set_fault_plan(std::shared_ptr<const FaultPlan> plan);

  /// Self-healing-exchange tallies summed over ranks, for the run(s) since
  /// the last run() began (stats reset when a run starts). All zero in a
  /// fault-free run.
  CommFaultStats comm_fault_stats() const;

  /// Ranks of the most recent run() that unwound with WorldPoisoned after a
  /// sibling's failure (P - 1 when one rank aborted and everyone else was
  /// poisoned; 0 for a clean run).
  int last_poisoned_siblings() const { return last_poisoned_siblings_; }

 private:
  int ranks_;
  int last_poisoned_siblings_ = 0;
  std::shared_ptr<detail::WorldState> state_;
};

}  // namespace dibella::comm
