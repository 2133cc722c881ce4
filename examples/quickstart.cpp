/// \file quickstart.cpp
/// Minimal end-to-end tour of the diBELLA public API:
///   1. simulate a small PacBio-like dataset (or load a FASTQ),
///   2. run the four-stage pipeline over P in-process ranks,
///   3. print the stage counters and the first few PAF records.
///
/// Usage:
///   quickstart [--ranks=4] [--k=17] [--scale=0.01] [--fastq=reads.fq]
///              [--coverage=30] [--error-rate=0.15]
///              [--seed-policy=one|spaced|all] [--paf=out.paf]

#include <fstream>
#include <iostream>

#include "comm/world.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "io/fastx.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace dibella;
  util::Args args(argc, argv);
  args.reject_unknown(
      {"ranks", "k", "scale", "fastq", "coverage", "error-rate", "seed-policy", "paf"});
  const int ranks = static_cast<int>(args.get_i64("ranks", 4));
  const double scale = args.get_double("scale", 0.01);

  // --- input: a scaled E. coli 30x-like simulation, or a user FASTQ.
  std::vector<io::Read> reads;
  double coverage = args.get_double("coverage", 30.0);
  double error_rate = args.get_double("error-rate", 0.15);
  if (args.has("fastq")) {
    reads = io::parse_fastq(io::load_file(args.get("fastq", "")));
    std::cout << "loaded " << reads.size() << " reads from " << args.get("fastq", "")
              << "\n";
  } else {
    auto preset = simgen::ecoli30x_like(scale);
    error_rate = preset.reads.error_rate;
    coverage = preset.reads.coverage;
    auto sim = make_dataset(preset);
    reads = std::move(sim.reads);
    std::cout << "simulated " << reads.size() << " reads (" << preset.name
              << "-like, genome " << preset.genome.length << " bp, " << coverage
              << "x, " << 100 * error_rate << "% error)\n";
  }

  // --- configure: k and m from BELLA's model unless overridden.
  core::PipelineConfig cfg;
  cfg.k = static_cast<int>(args.get_i64("k", 17));
  cfg.assumed_error_rate = error_rate;
  cfg.assumed_coverage = coverage;
  std::string policy = args.get("seed-policy", "one");
  if (policy == "spaced") {
    cfg.seed_filter = overlap::SeedFilterConfig::spaced(1000);
  } else if (policy == "all") {
    cfg.seed_filter = overlap::SeedFilterConfig::all_seeds(cfg.k);
  }
  std::cout << "k=" << cfg.k << "  reliable-frequency ceiling m="
            << cfg.resolved_max_kmer_count() << "  seed policy=" << policy << "\n\n";

  // --- run the pipeline over an in-process SPMD world.
  comm::World world(ranks);
  auto out = run_pipeline(world, reads, cfg);

  util::Table t({"stage counter", "value"});
  auto row = [&](const char* name, u64 v) {
    t.start_row();
    t.cell(name);
    t.cell(v);
  };
  row("k-mer instances parsed", out.counters.kmers_parsed);
  row("candidate keys (Bloom-approved)", out.counters.candidate_keys);
  row("retained k-mers (2 <= count <= m)", out.counters.retained_kmers);
  row("overlap tasks exchanged", out.counters.overlap_tasks);
  row("distinct read pairs", out.counters.read_pairs);
  row("reads replicated in exchange", out.counters.reads_exchanged);
  row("seed extensions (alignments)", out.counters.alignments_computed);
  row("alignments reported", out.counters.alignments_reported);
  t.print("diBELLA pipeline on " + std::to_string(ranks) + " ranks");

  // --- results.
  std::cout << "\nfirst alignments (PAF):\n";
  auto first = out.alignment_source();
  align::AlignmentRecord rec;
  for (int shown = 0; shown < 5 && first->next(rec); ++shown) {
    std::cout << core::paf_line(rec, reads[static_cast<std::size_t>(rec.rid_a)],
                                reads[static_cast<std::size_t>(rec.rid_b)])
              << "\n";
  }
  if (args.has("paf")) {
    std::ofstream paf(args.get("paf", "out.paf"));
    auto all = out.alignment_source();
    core::write_paf(paf, *all, reads);
    std::cout << "\nwrote " << out.counters.alignments_reported << " records to "
              << args.get("paf", "out.paf") << "\n";
  }
  return 0;
} catch (const dibella::util::UsageError& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 2;
}
