/// \file bench_fig03_bloom_scaling.cpp
/// Figure 3: Bloom filter stage cross-architecture strong scaling, in
/// millions of k-mer instances processed per second, E. coli 30x one-seed.
/// Paper shape: Cori and Edison on top (~300-600 Mk/s at scale), Titan and
/// AWS similar to each other until communication dominates AWS at 16-32
/// nodes; throughput grows with node count on the Crays.

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 3 — Bloom Filter Performance",
               "millions of k-mers/sec vs nodes, E.coli 30x one-seed, 4 platforms");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");

  util::Table t({"nodes", "Cori (XC40)", "Edison (XC30)", "Titan (XK7)", "AWS"});
  for (const auto& run : runs) {
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    for (const auto& platform : netsim::table1_platforms()) {
      auto report = run.evaluate(platform);
      double secs = report.stage("bloom").total_virtual();
      t.cell(mrate(run.out.counters.kmers_parsed, secs), 1);
    }
  }
  t.print("Bloom Filter stage: k-mers/sec (millions)");
  std::printf("\npaper anchor: rates rise with nodes on the Crays; Titan tracks AWS\n"
              "until AWS's network stalls it at 16-32 nodes (Fig 3).\n");
  return 0;
}
