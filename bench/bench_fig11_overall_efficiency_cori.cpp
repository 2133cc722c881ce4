/// \file bench_fig11_overall_efficiency_cori.cpp
/// Figure 11: overall pipeline efficiency on Cori (XC40) across the six
/// workloads: {E. coli 30x, 100x} x {one-seed, d=1000, d=k=17}.
/// Paper shape: higher computational intensity (bigger input, more seeds)
/// gives higher efficiency curves, but degrading exchange efficiency caps
/// all of them; efficiency can exceed 1.0 at small node counts (cache
/// effects) and falls toward 0.2-0.6 by 32 nodes.

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 11 — Overall Efficiency on Cori, Varying Workloads",
               "efficiency vs 1 node for 6 workload settings");

  struct Workload {
    std::string label;
    simgen::DatasetPreset preset;
    overlap::SeedFilterConfig filter;
    std::string key;
  };
  auto p30 = bench_preset_30x();
  auto p100 = bench_preset_100x();
  auto d1000_30 = static_cast<u32>(1000.0 * p30.reads.mean_read_len / 9958.0);
  auto d1000_100 = static_cast<u32>(1000.0 * p100.reads.mean_read_len / 6934.0);
  std::vector<Workload> workloads = {
      {"E.coli 100x, d=k=17", p100, overlap::SeedFilterConfig::all_seeds(17), "e100-dk"},
      {"E.coli 100x, d=1K", p100, overlap::SeedFilterConfig::spaced(d1000_100),
       "e100-d1000"},
      {"E.coli 100x, one-seed", p100, overlap::SeedFilterConfig::one_seed(),
       "e100-oneseed"},
      {"E.coli 30x, d=k=17", p30, overlap::SeedFilterConfig::all_seeds(17), "e30-dk"},
      {"E.coli 30x, d=1K", p30, overlap::SeedFilterConfig::spaced(d1000_30), "e30-d1000"},
      {"E.coli 30x, one-seed", p30, overlap::SeedFilterConfig::one_seed(), "e30-oneseed"},
  };

  auto platform = netsim::cori();
  std::vector<std::string> headers = {"nodes"};
  for (const auto& w : workloads) headers.push_back(w.label);
  util::Table t(headers);

  std::vector<std::vector<double>> totals(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    auto cfg = config_for(workloads[w].preset, workloads[w].filter);
    const auto& runs = run_scaling(workloads[w].preset, cfg, workloads[w].key);
    for (const auto& run : runs) {
      auto report = run.evaluate(platform);
      totals[w].push_back(report.total_virtual());
    }
  }
  auto nodes = bench_node_counts();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    t.start_row();
    t.cell(static_cast<i64>(nodes[n]));
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      t.cell(efficiency(totals[w][0], totals[w][n], nodes[n]), 2);
    }
  }
  t.print("overall efficiency over 1 node (Cori XC40)");
  std::printf("\npaper anchor: the computationally intense settings (100x, d=k)\n"
              "hold efficiency longest; one-seed 30x degrades first (Fig 11).\n");
  return 0;
}
