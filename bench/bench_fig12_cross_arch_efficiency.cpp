/// \file bench_fig12_cross_arch_efficiency.cpp
/// Figure 12: diBELLA overall (solid) and exchange-only (dashed) efficiency
/// across all four platforms, E. coli 30x one-seed.
/// Paper shape: exchange efficiency collapses fastest on AWS; the XK7's
/// older Gemini network is the best *balanced* for this problem even though
/// its absolute performance is low; overall efficiency sits between the
/// compute and exchange curves everywhere.

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 12 — diBELLA Efficiency (overall + exchange)",
               "efficiency vs 1 node, 4 platforms, E.coli 30x one-seed");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");

  util::Table t({"nodes", "XC40 overall", "XC40 exch", "XC30 overall", "XC30 exch",
                 "XK7 overall", "XK7 exch", "AWS overall", "AWS exch"});
  std::vector<netsim::Platform> platforms = {netsim::cori(), netsim::edison(),
                                             netsim::titan(), netsim::aws()};
  std::vector<double> total1(platforms.size()), exch1(platforms.size());
  for (const auto& run : runs) {
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    for (std::size_t p = 0; p < platforms.size(); ++p) {
      auto report = run.evaluate(platforms[p]);
      double total = report.total_virtual();
      double exch = report.total_exchange_virtual();
      if (run.nodes == 1) {
        total1[p] = total;
        exch1[p] = exch;
      }
      t.cell(efficiency(total1[p], total, run.nodes), 2);
      t.cell(efficiency(exch1[p], exch, run.nodes), 2);
    }
  }
  t.print("efficiency over 1 node (overall / exchange-only)");
  std::printf("\npaper anchor: AWS's exchange efficiency collapses first; the\n"
              "HPC networks degrade more gently (Fig 12).\n");
  return 0;
}
