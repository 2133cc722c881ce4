#pragma once
/// \file communicator.hpp
/// Per-rank handle on the in-process World: rank and size, the stage tag
/// every exchange record carries, the record and exchange-start sinks, and
/// the collective epoch. It moves no payload and has no collective of its
/// own.
///
/// Every payload and every synchronization between ranks is a
/// comm::Exchanger round (exchanger.hpp): each flush deposits one
/// CRC-framed, epoch-tagged message per peer into the World's mailbox slots
/// and the matching wait() consumes them, retransmitting from the sender's
/// replay copy when a message is lost or mangled. There is no unframed
/// payload path. Rounds are collective: every rank flushes the same number
/// of times in the same order (standard SPMD contract), and each flush
/// consumes exactly one epoch. An empty round (flush_async then wait with
/// nothing posted) is the barrier: no rank's wait() returns before every
/// rank has flushed.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "comm/exchange_record.hpp"
#include "util/common.hpp"

namespace dibella::comm {

class FaultPlan;

namespace detail {
class WorldState;
}

class Communicator {
 public:
  Communicator(detail::WorldState& state, int rank);

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Tag subsequent exchange records with a pipeline stage name (e.g.
  /// "bloom", "alignment"). Purely for accounting.
  void set_stage(std::string stage) { stage_ = std::move(stage); }
  const std::string& stage() const { return stage_; }

  /// Optional per-record callback, the only consumer of exchange records
  /// (the pipeline stores each one in its rank trace, interleaved with the
  /// compute events).
  void set_record_sink(std::function<void(const ExchangeRecord&)> sink) {
    sink_ = std::move(sink);
  }

  /// Optional callback fired when an Exchanger flush starts (used by the
  /// pipeline to mark the start of a compute-concurrent exchange window in
  /// its rank trace; pairs with the record sink's completion event).
  void set_exchange_start_sink(std::function<void()> sink) {
    start_sink_ = std::move(sink);
  }

 private:
  friend class Exchanger;

  /// Every Exchanger flush announces itself here before touching the wire:
  /// the call assigns the flush's 0-based index within the current stage on
  /// this rank — the `epoch` coordinate of
  /// `--inject-fault=kind@stage:epoch[:rank]` — and throws RankFailure if an
  /// unfired abort spec matches. Returns the index so the Exchanger can also
  /// match transport faults against it.
  u64 fault_point();

  /// Every Exchanger wait() ends here: stamp the record with this rank's
  /// exchange index and the stage tag, then hand it to the record sink.
  /// Nothing else keeps it.
  void record_exchange(ExchangeRecord rec);

  /// Move to the next collective epoch; every Exchanger flush consumes
  /// exactly one epoch on every rank, which is what keeps mailbox tags
  /// aligned across ranks.
  void advance_epoch() { ++epoch_; }

  detail::WorldState& state_;
  int rank_;
  int size_;
  u64 epoch_ = 0;
  u64 exchanges_ = 0;  ///< record_exchange() calls so far (the next record's seq)
  std::string stage_;
  std::function<void(const ExchangeRecord&)> sink_;
  std::function<void()> start_sink_;
  std::shared_ptr<const FaultPlan> fault_plan_;
  std::map<std::string, u64> stage_collective_index_;  ///< fault_point() counters
};

}  // namespace dibella::comm
