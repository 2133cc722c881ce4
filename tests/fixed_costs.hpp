#pragma once
// Per-unit kernel costs fixed for tests that price a trace: one calibration
// of a 4-vCPU Xeon (KVM), rounded, so modeled figures keep the proportions
// of a real host and repeat exactly from run to run.

#include "netsim/rank_trace.hpp"

inline dibella::netsim::KernelCosts fixed_kernel_costs() {
  using dibella::netsim::Kernel;
  dibella::netsim::KernelCosts c{};
  c[Kernel::kParse] = 2e-9;
  c[Kernel::kBloomInsert] = 40e-9;
  c[Kernel::kTableInsert] = 65e-9;
  c[Kernel::kTableTraverse] = 30e-9;
  c[Kernel::kPairConsolidate] = 100e-9;
  c[Kernel::kPairRuns] = 200e-9;
  c[Kernel::kXdropCell] = 0.5e-9;
  c[Kernel::kByteCopy] = 0.04e-9;
  c[Kernel::kGraphProbe] = 35e-9;
  return c;
}
