/// \file bench_fig04_bloom_efficiency_aws.cpp
/// Figure 4: Bloom filter stage efficiency breakdown on AWS — Packing,
/// Exchanging, Local Processing, and Overall efficiency vs 1 node, strong
/// scaling, E. coli 30x one-seed.
/// Paper shape: Local Processing goes superlinear (cache effects), Packing
/// stays near 1, Exchanging collapses with concurrency and drags Overall
/// down with it.

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 4 — Bloom Filter Efficiency on AWS",
               "component efficiencies vs 1 node, E.coli 30x one-seed");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");
  auto platform = netsim::aws();

  struct Component {
    const char* label;
    double t1 = 0.0;
  };
  Component pack{"Packing"}, exch{"Exchanging"}, local{"Local Processing"},
      overall{"Overall"};

  util::Table t({"nodes", "Packing", "Exchanging", "Local Processing", "Overall"});
  for (const auto& run : runs) {
    auto report = run.evaluate(platform);
    double t_pack = report.stage("bloom:pack").compute_virtual;
    double t_local = report.stage("bloom:local").compute_virtual;
    double t_exch = report.stage("bloom").exchange_virtual;
    double t_all = report.stage("bloom").total_virtual();
    if (run.nodes == 1) {
      pack.t1 = t_pack;
      exch.t1 = t_exch;
      local.t1 = t_local;
      overall.t1 = t_all;
    }
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    t.cell(efficiency(pack.t1, t_pack, run.nodes), 2);
    t.cell(efficiency(exch.t1, t_exch, run.nodes), 2);
    t.cell(efficiency(local.t1, t_local, run.nodes), 2);
    t.cell(efficiency(overall.t1, t_all, run.nodes), 2);
  }
  t.print("Bloom Filter efficiency on AWS (1.0 = linear scaling)");
  std::printf("\npaper anchor: Local Processing exceeds 1.0 (superlinear, cache);\n"
              "Exchanging efficiency degrades sharply and dominates Overall (Fig 4).\n");
  return 0;
}
