/// \file bench_fig05_hashtable_scaling.cpp
/// Figure 5: Hash Table construction stage cross-architecture performance,
/// millions of k-mers/second, E. coli 30x one-seed.
/// Paper shape: same trends as the Bloom stage but roughly double the
/// processing rate (more compute per k-mer amortizes the same exchange
/// pattern; §7).

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 5 — Hash Table Construction Performance",
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
      double secs = report.stage("ht").total_virtual();
      t.cell(mrate(run.out.counters.kmers_parsed, secs), 1);
    }
  }
  t.print("Hash Table stage: k-mers/sec (millions)");

  // The cross-stage comparison the paper draws in §7 / §10.
  const auto& last = runs.back();
  auto cori_report = last.evaluate(netsim::cori());
  std::printf("\ncross-stage check at %d nodes (Cori): HT exchange bytes / BF "
              "exchange bytes = %.2f (paper: ~2.5x, §7)\n",
              last.nodes,
              static_cast<double>(cori_report.stage("ht").exchange_bytes) /
                  static_cast<double>(cori_report.stage("bloom").exchange_bytes));
  return 0;
}
