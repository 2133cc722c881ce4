/// \file bench_fig06_overlap_scaling.cpp
/// Figure 6: Overlap stage cross-architecture performance, millions of
/// *retained* k-mers processed per second, E. coli 30x one-seed.
/// Paper shape: same platform ordering as the earlier stages; Cori dips at
/// 16 nodes in the paper due to one-off network interference (noted, not
/// reproduced — our model has no stochastic congestion).

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 6 — Overlap Performance",
               "millions of retained k-mers/sec vs nodes, E.coli 30x one-seed");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");

  util::Table t({"nodes", "Cori (XC40)", "Edison (XC30)", "Titan (XK7)", "AWS"});
  for (const auto& run : runs) {
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    for (const auto& platform : netsim::table1_platforms()) {
      auto report = run.evaluate(platform);
      double secs = report.stage("overlap").total_virtual();
      t.cell(mrate(run.out.counters.retained_kmers, secs), 2);
    }
  }
  t.print("Overlap stage: retained k-mers/sec (millions)");
  std::printf("\nretained k-mers: %llu of %llu parsed instances "
              "(filtering removed the rest; §8)\n",
              static_cast<unsigned long long>(runs[0].out.counters.retained_kmers),
              static_cast<unsigned long long>(runs[0].out.counters.kmers_parsed));
  return 0;
}
