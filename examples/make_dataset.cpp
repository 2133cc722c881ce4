/// \file make_dataset.cpp
/// Dataset factory: write a synthetic PacBio-like FASTQ (plus its ground
/// truth and the reference genome) to disk, for feeding `quickstart
/// --fastq=...`, external tools, or quality studies. Presets mirror the
/// paper's inputs (§5).
///
/// Usage:
///   make_dataset [--preset=30x|100x|tiny] [--scale=0.01] [--out=dataset]
///                [--coverage=30] [--error-rate=0.15] [--seed=7]
///
/// Writes <out>.fq, <out>.truth.tsv (the io::TruthTable sidecar format that
/// `dibella --input=<out>.fq --eval=on` loads back), and <out>.ref.fa.

#include <iostream>

#include "io/fastx.hpp"
#include "io/truth.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) try {
  using namespace dibella;
  util::Args args(argc, argv);
  args.reject_unknown({"preset", "scale", "out", "coverage", "error-rate", "seed"});
  const std::string out = args.get("out", "dataset");
  const double scale = args.get_double("scale", 0.01);

  simgen::DatasetPreset preset;
  std::string name = args.get("preset", "30x");
  if (name == "100x") {
    preset = simgen::ecoli100x_like(scale);
  } else if (name == "tiny") {
    preset = simgen::tiny_test(static_cast<u64>(args.get_i64("seed", 42)));
  } else {
    preset = simgen::ecoli30x_like(scale);
  }
  if (args.has("coverage")) preset.reads.coverage = args.get_double("coverage", 30.0);
  if (args.has("error-rate")) {
    preset.reads.error_rate = args.get_double("error-rate", 0.15);
  }
  if (args.has("seed")) preset.reads.seed = static_cast<u64>(args.get_i64("seed", 7));

  std::string genome = simgen::generate_genome(preset.genome);
  auto sim = simgen::simulate_reads(genome, preset.reads);

  io::save_file(out + ".fq", io::to_fastq(sim.reads));
  // Machine-readable provenance: the shared sidecar writer, so the driver's
  // loader (and any external scorer) can round-trip it.
  simgen::truth_table(sim).save_tsv(out + ".truth.tsv");
  {
    io::Read ref;
    ref.gid = 0;
    ref.name = preset.name + "_reference";
    ref.seq = genome;
    io::save_file(out + ".ref.fa", io::to_fasta({ref}));
  }

  u64 bases = 0;
  for (const auto& r : sim.reads) bases += r.seq.size();
  std::cout << "wrote " << out << ".fq (" << sim.reads.size() << " reads, " << bases
            << " bases, ~" << preset.reads.coverage << "x of " << genome.size()
            << " bp genome, " << 100 * preset.reads.error_rate << "% error)\n"
            << "      " << out << ".truth.tsv, " << out << ".ref.fa\n";
  return 0;
} catch (const dibella::util::UsageError& e) {
  std::cerr << "make_dataset: " << e.what() << "\n";
  return 2;
}
