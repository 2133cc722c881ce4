/// \file bench_fig07_alignment_scaling.cpp
/// Figure 7: Alignment stage cross-architecture strong scaling, millions of
/// alignments per second, E. coli 30x one-seed (the computationally
/// worst-case single-seed setting).
/// Paper shape: the number and speed of cores per node sets the ranking —
/// Cori's 32 Haswell cores clearly on top; Titan and AWS at the bottom.

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 7 — Alignment Performance",
               "millions of alignments/sec vs nodes, E.coli 30x one-seed");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");

  util::Table t({"nodes", "Cori (XC40)", "Edison (XC30)", "Titan (XK7)", "AWS"});
  for (const auto& run : runs) {
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    for (const auto& platform : netsim::table1_platforms()) {
      auto report = run.evaluate(platform);
      double secs = report.stage("align").total_virtual();
      t.cell(mrate(run.out.counters.alignments_computed, secs), 3);
    }
  }
  t.print("Alignment stage: alignments/sec (millions)");
  std::printf("\npaper anchor: per-node core count and speed set the ranking "
              "(Cori's 32 Haswell cores first; §9).\n");
  return 0;
}
