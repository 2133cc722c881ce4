/// \file bench_fig08_alignment_load_imbalance.cpp
/// Figure 8: Alignment stage load imbalance (max per-rank stage time over
/// the average across ranks; 1.0 = perfect), E. coli 30x one-seed.
/// Paper shape: imbalance grows with node count (toward ~1.4-2.0 at 32
/// nodes) even though the *count* of alignments per rank is near-perfectly
/// balanced — read-length variance and x-drop early exit make task costs
/// unequal (§9).

#include <cstdio>

#include "common/bench_common.hpp"
#include "util/stats.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 8 — Alignment Stage Load Imbalance",
               "max/avg per-rank alignment time vs nodes, E.coli 30x one-seed");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");

  util::Table t({"nodes", "AWS", "Titan (XK7)", "Edison (XC30)", "Cori (XC40)",
                 "task-count imbalance"});
  for (const auto& run : runs) {
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    // Paper's legend order for this figure: AWS, Titan, Edison, Cori.
    for (const auto& platform :
         {netsim::aws(), netsim::titan(), netsim::edison(), netsim::cori()}) {
      auto report = run.evaluate(platform);
      const auto& per_rank = report.per_rank_stage_seconds.at("align");
      t.cell(util::load_imbalance(per_rank), 3);
    }
    // The §9 contrast: the balance in alignment *counts* stays near perfect
    // (the paper reports < 0.002% at its scale) while the time balance does
    // not — read lengths vary and x-drop exits early on divergent pairs.
    std::vector<double> per_rank_counts;
    for (u64 c : run.out.per_rank_pairs_aligned) {
      per_rank_counts.push_back(static_cast<double>(c));
    }
    t.cell(util::load_imbalance(per_rank_counts), 3);
  }
  t.print("Alignment load imbalance (1.0 = perfect)");
  std::printf("\npaper anchor: time imbalance grows with concurrency while the\n"
              "assignment of alignments per rank stays near-uniform (§9).\n");
  return 0;
}
