/// \file bench_fig10_breakdown_cori_100x.cpp
/// Figure 10: runtime percentage breakdown on Cori (XC40) for the higher
/// computational-intensity workload — E. coli 100x with all seeds >= 1 kbp
/// apart.
/// Paper shape: Alignment dominates the breakdown up to 32 nodes (unlike
/// Fig 9's balanced profile); exchange shares stay comparatively small.

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 10 — Cori (XC40) Runtime Breakdown, E. coli 100x",
               "% of total virtual time per stage vs nodes (all seeds, d=1000)");

  auto preset = bench_preset_100x();
  // The paper's d = 1000 bp seed separation, scaled with the bench reads.
  auto spacing = static_cast<u32>(1000.0 * preset.reads.mean_read_len / 6934.0);
  auto cfg = config_for(preset, overlap::SeedFilterConfig::spaced(spacing));
  const auto& runs = run_scaling(preset, cfg, "e100-d1000");
  auto platform = netsim::cori();

  util::Table t({"nodes", "BloomFilter", "BF Exchange", "HashTable", "HT Exchange",
                 "Overlap", "Ov Exchange", "Alignment", "Al Exchange"});
  double align_share_1 = 0.0;
  for (const auto& run : runs) {
    auto report = run.evaluate(platform);
    double total = report.total_virtual();
    auto pct = [&](double v) { return 100.0 * v / total; };
    if (run.nodes == 1) align_share_1 = pct(report.stage("align").compute_virtual);
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    for (const char* stage : {"bloom", "ht", "overlap", "align"}) {
      t.cell(pct(report.stage(stage).compute_virtual), 1);
      t.cell(pct(report.stage(stage).exchange_virtual), 1);
    }
  }
  t.print("stage share of total runtime (%)");
  std::printf("\npaper anchor: alignment dominates this workload (%.0f%% of the\n"
              "1-node runtime here) — the higher-intensity regime of Fig 10.\n",
              align_share_1);
  return 0;
}
