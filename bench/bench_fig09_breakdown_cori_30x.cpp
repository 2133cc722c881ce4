/// \file bench_fig09_breakdown_cori_30x.cpp
/// Figure 9: runtime percentage breakdown by stage on Cori (XC40), E. coli
/// 30x one-seed — the minimum-computational-intensity workload.
/// Paper shape: the four stages are fairly evenly balanced; exchange shares
/// grow with node count; the Bloom-filter exchange exceeds the hash-table
/// exchange despite 2.5x less volume, because the *first* MPI_Alltoallv
/// call pays one-time setup (§10) — our cost model reproduces this.

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Figure 9 — Cori (XC40) Runtime Breakdown, E. coli 30x",
               "% of total virtual time per stage component vs nodes (one-seed)");

  auto preset = bench_preset_30x();
  auto cfg = config_for(preset, overlap::SeedFilterConfig::one_seed());
  const auto& runs = run_scaling(preset, cfg, "e30-oneseed");
  auto platform = netsim::cori();

  util::Table t({"nodes", "BloomFilter", "BF Exchange", "HashTable", "HT Exchange",
                 "Overlap", "Ov Exchange", "Alignment", "Al Exchange"});
  for (const auto& run : runs) {
    auto report = run.evaluate(platform);
    double total = report.total_virtual();
    auto pct = [&](double v) { return 100.0 * v / total; };
    t.start_row();
    t.cell(static_cast<i64>(run.nodes));
    for (const char* stage : {"bloom", "ht", "overlap", "align"}) {
      t.cell(pct(report.stage(stage).compute_virtual), 1);
      t.cell(pct(report.stage(stage).exchange_virtual), 1);
    }
  }
  t.print("stage share of total runtime (%)");

  // The first-Alltoallv anomaly, quantified.
  const auto& mid = runs[runs.size() / 2];
  auto report = mid.evaluate(platform);
  std::printf("\nfirst-call anomaly at %d nodes: BF exchange %.4fs vs HT exchange "
              "%.4fs, although HT moves %.1fx the bytes — the gap is narrowed by "
              "the first MPI_Alltoallv's setup charge, which lands in the Bloom "
              "stage (§10; at paper-sized volumes the charge flips BF above HT).\n",
              mid.nodes, report.stage("bloom").exchange_virtual,
              report.stage("ht").exchange_virtual,
              static_cast<double>(report.stage("ht").exchange_bytes) /
                  static_cast<double>(report.stage("bloom").exchange_bytes));
  return 0;
}
