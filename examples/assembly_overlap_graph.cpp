/// \file assembly_overlap_graph.cpp
/// The de novo assembly scenario the paper's introduction motivates: run the
/// overlap + alignment pipeline, build the read-overlap graph, and prepare
/// it for assembly — connected components, degree spectrum, and transitive
/// reduction (the step that turns a dense overlap graph into a string-graph
/// skeleton). Reports how well the graph reconstructs the genome's
/// contiguity (one giant component expected at sufficient coverage).
///
/// Usage:
///   assembly_overlap_graph [--ranks=4] [--scale=0.01] [--coverage=30]
///                          [--min-score=100]

#include <iostream>
#include <map>
#include <set>

#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "graph/overlap_graph.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace dibella;
  util::Args args(argc, argv);
  args.reject_unknown({"ranks", "scale", "min-score", "coverage"});
  const int ranks = static_cast<int>(args.get_i64("ranks", 4));
  const double scale = args.get_double("scale", 0.01);
  const int min_score = static_cast<int>(args.get_i64("min-score", 100));

  auto preset = simgen::ecoli30x_like(scale);
  preset.reads.coverage = args.get_double("coverage", preset.reads.coverage);
  auto sim = make_dataset(preset);
  simgen::TruthOracle oracle(sim.truth, preset.min_true_overlap);
  std::cout << "dataset: " << sim.reads.size() << " reads, genome "
            << preset.genome.length << " bp, coverage " << preset.reads.coverage
            << "x\n";

  core::PipelineConfig cfg;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  cfg.seed_filter = overlap::SeedFilterConfig::spaced(1000);
  comm::World world(ranks);
  auto out = run_pipeline(world, sim.reads, cfg);
  const auto alignments = out.merged_alignments();
  std::cout << "pipeline: " << out.counters.read_pairs << " candidate pairs, "
            << out.counters.alignments_reported << " alignments\n\n";

  // --- overlap graph and assembly-prep statistics.
  auto g = graph::OverlapGraph::from_alignments(alignments, sim.reads.size(),
                                                min_score);
  auto comp = g.connected_components();
  std::map<u64, u64> sizes;
  for (u64 c : comp) ++sizes[c];
  u64 giant = 0, singletons = 0;
  for (auto& [c, n] : sizes) {
    giant = std::max(giant, n);
    if (n == 1) ++singletons;
  }
  auto degrees = g.degree_histogram();

  util::Table t({"overlap graph", "value"});
  auto row = [&](const std::string& name, const std::string& v) {
    t.start_row();
    t.cell(name);
    t.cell(v);
  };
  row("vertices (reads)", std::to_string(g.num_vertices()));
  row("edges (score >= " + std::to_string(min_score) + ")", std::to_string(g.num_edges()));
  row("connected components", std::to_string(g.num_components()));
  row("giant component", std::to_string(giant) + " reads (" +
                             util::format_double(100.0 * static_cast<double>(giant) /
                                                     static_cast<double>(g.num_vertices()),
                                                 1) +
                             "%)");
  row("isolated reads", std::to_string(singletons));
  row("median degree", std::to_string(degrees.quantile(0.5)));
  row("p95 degree", std::to_string(degrees.quantile(0.95)));

  u64 removed = g.transitive_reduction();
  row("transitive edges removed", std::to_string(removed));
  row("string-graph edges kept", std::to_string(g.num_edges()));
  row("components after reduction", std::to_string(g.num_components()));
  t.print("assembly preparation");

  // --- quality vs ground truth.
  auto true_pairs = oracle.all_true_pairs();
  u64 found = 0;
  std::set<std::pair<u64, u64>> aligned;
  for (const auto& rec : alignments) {
    if (rec.score >= min_score) aligned.insert({rec.rid_a, rec.rid_b});
  }
  for (auto& p : true_pairs) {
    if (aligned.count(p)) ++found;
  }
  std::cout << "\nground truth: recovered " << found << " / " << true_pairs.size()
            << " true overlaps >= " << preset.min_true_overlap << " bp ("
            << util::format_double(
                   100.0 * static_cast<double>(found) /
                       static_cast<double>(std::max<u64>(1, true_pairs.size())),
                   1)
            << "% recall)\n";
  return 0;
} catch (const dibella::util::UsageError& e) {
  std::cerr << "assembly_overlap_graph: " << e.what() << "\n";
  return 2;
}
