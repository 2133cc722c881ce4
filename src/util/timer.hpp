#pragma once
/// \file timer.hpp
/// Stopwatches. Modeled compute time comes from work counts times per-unit
/// kernel costs (netsim::KernelCosts), not from clocks: WallTimer times runs
/// and spans, and ThreadCpuTimer times the calibration reps that measure
/// those per-unit costs.

#include <time.h>

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

/// The calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID): the seconds
/// this thread ran, which do not grow while it waits for a CPU. Starts
/// running on construction; read it on the thread that constructed it.
class ThreadCpuTimer {
 public:
  /// CPU seconds this thread ran since construction.
  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_ = now();
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
