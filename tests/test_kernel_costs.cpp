// Kernel-cost calibration: every per-unit cost is measured (finite and
// positive), on one worker and on a pool of them, and each is measured on
// state that does not depend on how long calibration has been running. The
// traversal pin guards the latter: a traversal table whose occurrence lists
// grew during a time-budgeted insert loop reads a per-key scan over 10x
// dearer than an insert, while the overlap stage's traversal over a table of
// short lists is far cheaper than one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "core/kernel_costs.hpp"

namespace dc = dibella::core;

namespace {

void expect_finite_and_positive(const dc::KernelCosts& c) {
  const struct {
    const char* name;
    double value;
  } costs[] = {
      {"parse_per_kmer", c.parse_per_kmer},
      {"bloom_insert", c.bloom_insert},
      {"table_insert", c.table_insert},
      {"table_traverse", c.table_traverse},
      {"pair_consolidate", c.pair_consolidate},
      {"pair_runs", c.pair_runs},
      {"xdrop_per_cell", c.xdrop_per_cell},
      {"per_byte_copy", c.per_byte_copy},
      {"graph_probe", c.graph_probe},
  };
  for (const auto& cost : costs) {
    EXPECT_TRUE(std::isfinite(cost.value)) << cost.name;
    EXPECT_GT(cost.value, 0.0) << cost.name;
  }
}

void expect_traverse_below_insert(const dc::KernelCosts& c) {
  EXPECT_LT(c.table_traverse, c.table_insert)
      << "traverse " << c.table_traverse * 1e9 << " ns/key vs insert "
      << c.table_insert * 1e9 << " ns/key";
}

TEST(KernelCosts, EveryCostIsFiniteAndPositive) {
  expect_finite_and_positive(dc::KernelCosts::get());
}

TEST(KernelCosts, TraversingAKeyIsCheaperThanInsertingIt) {
  expect_traverse_below_insert(dc::KernelCosts::get());
}

TEST(KernelCosts, InlineAndPooledCalibrationsMeasureEveryCost) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    const dc::KernelCosts c = dc::KernelCosts::measure(workers);
    expect_finite_and_positive(c);
    expect_traverse_below_insert(c);
  }
}

}  // namespace
