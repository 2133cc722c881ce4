#include "comm/world.hpp"

#include <atomic>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/detail/world_state.hpp"
#include "comm/fault.hpp"

namespace dibella::comm {

World::World(int ranks, double timeout_seconds) : ranks_(ranks) {
  DIBELLA_CHECK(ranks >= 1, "World needs at least 1 rank");
  state_ = std::make_shared<detail::WorldState>(ranks, timeout_seconds);
}

World::~World() = default;

void World::run(const std::function<void(Communicator&)>& fn) {
  state_->reset_poison();
  std::atomic<int> poisoned_siblings{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    threads.emplace_back([this, r, &fn, &poisoned_siblings] {
      Communicator comm(*state_, r);
      try {
        fn(comm);
      } catch (const WorldPoisoned&) {
        // Another rank failed first; unwind quietly.
        poisoned_siblings.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        state_->poison(std::current_exception());
      }
    });
  }
  for (auto& t : threads) t.join();
  last_poisoned_siblings_ = poisoned_siblings.load(std::memory_order_relaxed);
  if (auto err = state_->first_error()) {
    state_->reset_poison();
    std::rethrow_exception(err);
  }
}

void World::set_fault_plan(std::shared_ptr<const FaultPlan> plan) {
  state_->set_fault_plan(std::move(plan));
}

CommFaultStats World::comm_fault_stats() const { return state_->sum_fault_stats(); }

}  // namespace dibella::comm
