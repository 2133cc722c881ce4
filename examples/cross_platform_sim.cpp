/// \file cross_platform_sim.cpp
/// The paper's cross-architecture study in miniature: run one workload, then
/// replay its communication/computation trace against the four Table 1
/// platform models (Cori, Edison, Titan, AWS) at several node counts,
/// printing per-stage virtual times — the machinery behind Figs 3-13.
///
/// Usage:
///   cross_platform_sim [--scale=0.01] [--ranks-per-node=4] [--max-nodes=8]
///                      [--workload=30x|100x]

#include <iostream>

#include "comm/world.hpp"
#include "core/kernel_costs.hpp"
#include "core/pipeline.hpp"
#include "netsim/platform.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"
#include "util/cpus.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace dibella;
  util::Args args(argc, argv);
  args.reject_unknown({"scale", "ranks-per-node", "max-nodes", "workload"});
  const double scale = args.get_double("scale", 0.01);
  const int rpn = static_cast<int>(args.get_i64("ranks-per-node", 4));
  const int max_nodes = static_cast<int>(args.get_i64("max-nodes", 8));

  auto preset = args.get("workload", "30x") == "100x" ? simgen::ecoli100x_like(scale)
                                                      : simgen::ecoli30x_like(scale);
  auto sim = make_dataset(preset);
  std::cout << "workload: " << preset.name << "-like, " << sim.reads.size()
            << " reads, " << rpn << " ranks/node (simulated)\n\n";

  core::PipelineConfig cfg;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  // Every run's work units are priced at one measurement of this host.
  const netsim::KernelCosts costs =
      core::measure_kernel_costs(static_cast<std::size_t>(util::available_cpus()));

  for (int nodes = 1; nodes <= max_nodes; nodes *= 2) {
    const int ranks = nodes * rpn;
    comm::World world(ranks);
    auto out = run_pipeline(world, sim.reads, cfg);

    util::Table t({"platform", "bloom", "ht", "overlap", "align", "exchange", "total",
                   "aligns/s"});
    for (const auto& platform : netsim::table1_platforms()) {
      auto report = out.evaluate(platform, netsim::Topology{nodes, rpn}, costs);
      t.start_row();
      t.cell(platform.name);
      for (const char* stage : {"bloom", "ht", "overlap", "align"}) {
        t.cell(report.has_stage(stage) ? report.stage(stage).total_virtual() : 0.0, 4);
      }
      t.cell(report.total_exchange_virtual(), 4);
      t.cell(report.total_virtual(), 4);
      t.cell(util::format_si(
          static_cast<double>(out.counters.alignments_computed) / report.total_virtual(),
          2));
    }
    t.print(std::to_string(nodes) + " node(s), " + std::to_string(ranks) +
            " ranks — virtual seconds per stage");
    std::cout << "\n";
  }
  std::cout << "(virtual seconds: per-rank work units x kernel costs measured once\n"
               " on this host before the runs, x platform core factor, plus the\n"
               " alpha-beta network model over recorded exchanges; see\n"
               " netsim/platform.hpp and netsim/cost_model.hpp)\n";
  return 0;
} catch (const dibella::util::UsageError& e) {
  std::cerr << "cross_platform_sim: " << e.what() << "\n";
  return 2;
}
