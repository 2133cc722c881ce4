#pragma once
/// \file timer.hpp
/// Wall-clock timers. Modeled compute time comes from work counts
/// (core::KernelCosts), not from clocks, so only wall time is measured here.

#include <chrono>

namespace dibella::util {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class WallTimer {
 public:
  WallTimer() { reset(); }

  /// Restart the stopwatch from zero.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// RAII helper: adds elapsed wall seconds to a target accumulator on scope exit.
class ScopedWallAccumulator {
 public:
  explicit ScopedWallAccumulator(double& target) : target_(target) {}
  ~ScopedWallAccumulator() { target_ += timer_.seconds(); }
  ScopedWallAccumulator(const ScopedWallAccumulator&) = delete;
  ScopedWallAccumulator& operator=(const ScopedWallAccumulator&) = delete;

 private:
  double& target_;
  WallTimer timer_;
};

}  // namespace dibella::util
