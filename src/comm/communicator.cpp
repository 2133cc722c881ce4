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

void Communicator::record_exchange(ExchangeRecord rec) {
  rec.seq = exchanges_++;
  rec.stage = stage_;
  if (sink_) sink_(rec);
}

}  // namespace dibella::comm
