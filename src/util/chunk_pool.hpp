#pragma once
/// \file chunk_pool.hpp
/// The worker pool a rank's kernels run on: `workers` threads (the calling
/// thread included) claim chunks [0, n) through one atomic cursor, each
/// writing only its own per-worker state and the outputs of the chunks it
/// claimed. Callers that keep one output per chunk and concatenate them in
/// chunk order (concat_chunks) get the same bytes for every worker count.
///
/// With one worker (or one chunk) run() executes inline on the calling
/// thread and starts no thread. A worker's exception stops every worker at
/// its next claim; run() rethrows the error of the lowest-numbered worker
/// that failed once all have joined. Joining publishes every write to the
/// caller.

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace dibella::util {

template <class State>
class ChunkPool {
 public:
  /// `workers` >= 1 states, each constructed from `args`. States persist
  /// across run() calls, so their buffers are reused.
  template <class... Args>
  explicit ChunkPool(std::size_t workers, const Args&... args) {
    states_.reserve(std::max<std::size_t>(1, workers));
    for (std::size_t i = 0; i < std::max<std::size_t>(1, workers); ++i) {
      states_.emplace_back(args...);
    }
  }

  std::size_t workers() const { return states_.size(); }
  std::vector<State>& states() { return states_; }
  const std::vector<State>& states() const { return states_; }

  /// Call fn(State&, chunk) once for every chunk in [0, n_chunks) on
  /// min(workers(), n_chunks) threads; returns that thread count (>= 1).
  template <class Fn>
  std::size_t run(std::size_t n_chunks, Fn&& fn) {
    const std::size_t threads =
        std::max<std::size_t>(1, std::min(states_.size(), n_chunks));
    if (threads == 1) {
      for (std::size_t c = 0; c < n_chunks; ++c) fn(states_[0], c);
      return 1;
    }
    std::vector<std::exception_ptr> errors(threads);
    std::atomic<std::size_t> cursor{0};
    const auto work = [&](std::size_t w) {
      try {
        for (std::size_t c = cursor++; c < n_chunks; c = cursor++) fn(states_[w], c);
      } catch (...) {
        errors[w] = std::current_exception();
        cursor = n_chunks;  // the other workers stop at their next claim
      }
    };
    {
      std::vector<std::jthread> pool;
      pool.reserve(threads - 1);
      for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(work, w);
      work(0);
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return threads;
  }

 private:
  std::vector<State> states_;
};

/// Concatenate per-chunk outputs in chunk order.
template <class T>
std::vector<T> concat_chunks(const std::vector<std::vector<T>>& chunks) {
  std::size_t total = 0;
  for (const auto& c : chunks) total += c.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& c : chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

}  // namespace dibella::util
