/// \file bench_fig13_overall_performance.cpp
/// Figure 13: diBELLA cross-architecture strong scaling of the *whole
/// pipeline*, in millions of alignments per second, E. coli 30x one-seed.
/// Paper shape: all systems gain from multi-node parallelization; Cori
/// leads throughout (fastest nodes), Edison second, Titan and AWS behind;
/// AWS flattens/drops at 32 nodes.

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 13 — diBELLA Performance",
               "millions of alignments/sec (whole pipeline) vs nodes, E.coli 30x");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");

  util::Table t({"nodes", "Cori (XC40)", "Edison (XC30)", "Titan (XK7)", "AWS"});
  for (const auto& run : runs) {
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    for (const auto& platform : netsim::table1_platforms()) {
      auto report = run.evaluate(platform);
      t.cell(mrate(run.out.counters.alignments_computed, report.total_virtual()), 3);
    }
  }
  t.print("whole-pipeline alignments/sec (millions)");
  std::printf("\nfixed alignment count per configuration: %llu (one-seed => one\n"
              "extension per overlapping pair; §10).\n",
              static_cast<unsigned long long>(runs[0].out.counters.alignments_computed));
  return 0;
}
