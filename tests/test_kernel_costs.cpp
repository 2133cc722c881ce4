// Kernel-cost calibration: every per-unit cost is measured (finite and
// positive), on one worker and on a pool of them, and each is measured on
// state that does not depend on how long calibration has been running. The
// traversal pin guards the latter: a traversal table whose occurrence lists
// grew during a time-budgeted insert loop reads a per-key scan over 10x
// dearer than an insert, while the overlap stage's traversal over a table of
// short lists is far cheaper than one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/kernel_costs.hpp"
#include "util/cpus.hpp"

namespace dc = dibella::core;
using dibella::netsim::Kernel;
using dibella::netsim::KernelCosts;

namespace {

KernelCosts measure_on_every_cpu() {
  const int cpus = dibella::util::available_cpus();
  return dc::measure_kernel_costs(static_cast<std::size_t>(cpus));
}

/// Each cost's minimum over kFloorRuns calibrations on `workers` threads:
/// an estimate of its uncontended floor. A calibration times every kernel
/// in turn, so the runs interleave the kernels' repetitions, and a burst of
/// memory contention from a co-running process inflates some reps of one
/// kernel but not every rep of it.
KernelCosts floor_costs(std::size_t workers) {
  constexpr int kFloorRuns = 5;
  KernelCosts floor = dc::measure_kernel_costs(workers);
  for (int run = 1; run < kFloorRuns; ++run) {
    const KernelCosts c = dc::measure_kernel_costs(workers);
    for (std::size_t k = 0; k < floor.size(); ++k) floor[k] = std::min(floor[k], c[k]);
  }
  return floor;
}

void expect_finite_and_positive(const KernelCosts& c) {
  for (std::size_t k = 0; k < dibella::netsim::kKernelCount; ++k) {
    EXPECT_TRUE(std::isfinite(c[k])) << "kernel " << k;
    EXPECT_GT(c[k], 0.0) << "kernel " << k;
  }
}

/// Compares floors (floor_costs): the order of two costs is a property of
/// the kernels only when neither reading is inflated by contention.
void expect_traverse_below_insert(const KernelCosts& c) {
  EXPECT_LT(c[Kernel::kTableTraverse], c[Kernel::kTableInsert])
      << "traverse " << c[Kernel::kTableTraverse] * 1e9 << " ns/key vs insert "
      << c[Kernel::kTableInsert] * 1e9 << " ns/key";
}

TEST(KernelCosts, EveryCostIsFiniteAndPositive) {
  expect_finite_and_positive(measure_on_every_cpu());
}

TEST(KernelCosts, TraversingAKeyIsCheaperThanInsertingIt) {
  expect_traverse_below_insert(
      floor_costs(static_cast<std::size_t>(dibella::util::available_cpus())));
}

TEST(KernelCosts, InlineAndPooledCalibrationsMeasureEveryCost) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    expect_finite_and_positive(dc::measure_kernel_costs(workers));
    expect_traverse_below_insert(floor_costs(workers));
  }
}

}  // namespace
