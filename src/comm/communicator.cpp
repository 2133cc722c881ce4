#include "comm/communicator.hpp"

#include "comm/detail/world_state.hpp"
#include "comm/fault.hpp"

namespace dibella::comm {

Communicator::Communicator(detail::WorldState& state, int rank)
    : state_(state), rank_(rank), size_(state.ranks()), fault_plan_(state.fault_plan()) {
  DIBELLA_CHECK(rank >= 0 && rank < size_, "Communicator: rank out of range");
}

u64 Communicator::fault_point() {
  const u64 index = stage_collective_index_[stage_]++;
  if (fault_plan_) fault_plan_->maybe_abort(stage_, index, rank_);
  return index;
}

ExchangeRecord Communicator::start_record() {
  ExchangeRecord rec;
  rec.stage = stage_;
  rec.bytes_to_peer.assign(static_cast<std::size_t>(size_), 0);
  return rec;
}

void Communicator::finish_record(ExchangeRecord rec, double wall_seconds) {
  rec.wall_seconds = wall_seconds;
  const ExchangeRecord& stored = state_.append_record(rank_, std::move(rec));
  if (sink_) sink_(stored);
}

}  // namespace dibella::comm
