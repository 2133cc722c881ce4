/// \file seed_policy_explorer.cpp
/// Explore the accuracy/cost trade-off of the seed "exploration constraints"
/// (§5, §8-9): one seed per pair vs all seeds with a minimum separation, and
/// the x-drop parameter — against simulated ground truth. This reproduces
/// the reasoning behind the paper's three computational-intensity settings.
///
/// Usage:
///   seed_policy_explorer [--ranks=4] [--scale=0.008] [--min-overlap=1000]

#include <iostream>
#include <set>

#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace dibella;
  util::Args args(argc, argv);
  args.reject_unknown({"ranks", "scale", "min-overlap"});
  const int ranks = static_cast<int>(args.get_i64("ranks", 4));
  const double scale = args.get_double("scale", 0.004);
  const u64 min_overlap = static_cast<u64>(args.get_i64("min-overlap", 1000));

  auto preset = simgen::ecoli30x_like(scale);
  // Repeat-free genome: cross-repeat alignments are genuinely similar
  // sequences that do not intersect positionally, which would confound the
  // precision column this example is about.
  preset.genome.repeat_families = 0;
  auto sim = make_dataset(preset);
  simgen::TruthOracle oracle(sim.truth, min_overlap);
  auto true_pairs = oracle.all_true_pairs();
  std::set<std::pair<u64, u64>> truth(true_pairs.begin(), true_pairs.end());
  std::cout << "dataset: " << sim.reads.size() << " reads; " << truth.size()
            << " true overlaps >= " << min_overlap << " bp\n\n";

  struct Setting {
    std::string name;
    overlap::SeedFilterConfig filter;
    int xdrop;
  };
  std::vector<Setting> settings = {
      {"one-seed, X=15", overlap::SeedFilterConfig::one_seed(), 15},
      {"one-seed, X=25", overlap::SeedFilterConfig::one_seed(), 25},
      {"d=1000,   X=25", overlap::SeedFilterConfig::spaced(1000), 25},
      {"d=k=17,   X=25", overlap::SeedFilterConfig::all_seeds(17), 25},
      {"d=k=17,   X=50", overlap::SeedFilterConfig::all_seeds(17), 50},
  };

  util::Table t({"setting", "extensions", "DP cells", "recall%", "precision%",
                 "cells/pair"});
  comm::World world(ranks);
  for (const auto& s : settings) {
    core::PipelineConfig cfg;
    cfg.assumed_error_rate = preset.reads.error_rate;
    cfg.assumed_coverage = preset.reads.coverage;
    cfg.seed_filter = s.filter;
    cfg.xdrop = s.xdrop;
    auto out = run_pipeline(world, sim.reads, cfg);

    std::set<std::pair<u64, u64>> found;
    for (const auto& rec : out.merged_alignments()) {
      if (rec.score >= 100) found.insert({rec.rid_a, rec.rid_b});
    }
    u64 hit = 0;
    for (const auto& p : truth) {
      if (found.count(p)) ++hit;
    }
    simgen::TruthOracle loose(sim.truth, 1);
    u64 good = 0;
    for (const auto& p : found) {
      if (loose.truly_overlaps(p.first, p.second)) ++good;
    }
    t.start_row();
    t.cell(s.name);
    t.cell(out.counters.alignments_computed);
    t.cell(util::format_si(static_cast<double>(out.counters.dp_cells), 2));
    t.cell(100.0 * static_cast<double>(hit) /
               static_cast<double>(std::max<std::size_t>(1, truth.size())),
           1);
    t.cell(100.0 * static_cast<double>(good) /
               static_cast<double>(std::max<std::size_t>(1, found.size())),
           1);
    t.cell(static_cast<double>(out.counters.dp_cells) /
               static_cast<double>(std::max<u64>(1, out.counters.pairs_aligned)),
           0);
  }
  t.print("seed policy and x-drop exploration (alignment score >= 100)");
  std::cout << "\nmore seeds explored -> more DP work, slightly higher recall;\n"
               "the paper's one-seed setting is the cheapest useful configuration.\n";
  return 0;
} catch (const dibella::util::UsageError& e) {
  std::cerr << "seed_policy_explorer: " << e.what() << "\n";
  return 2;
}
