#pragma once
/// \file config.hpp
/// Full pipeline configuration. Defaults mirror the paper's settings for
/// PacBio data: k = 17, singleton floor 2, high-frequency ceiling m from
/// BELLA's model (auto), one seed per pair (the low-intensity workload of
/// most paper figures).

#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "overlap/seed_filter.hpp"
#include "sgraph/edge_class.hpp"
#include "util/common.hpp"

namespace dibella::core {

struct PipelineConfig {
  // --- k-mer analysis
  int k = 17;
  u32 min_kmer_count = 2;   ///< below: singleton (ignored)
  u32 max_kmer_count = 0;   ///< above: repeat (purged); 0 = auto via BELLA model
  double assumed_error_rate = 0.15;  ///< data model input for auto thresholds
  double assumed_coverage = 30.0;    ///< data model input for auto m

  // --- minimizer sketch (src/sketch/)
  /// Window minimizer sampling ahead of stages 1-3: only each read's window
  /// minimizers enter the Bloom routing, hash table, and overlap task
  /// exchange (~2/(w+1) of the dense seed volume). 0 or 1 = dense (every
  /// k-mer window). The driver defaults presets to w = 10.
  u32 minimizer_w = 0;
  /// Closed-syncmer selection (s = k - w + 1) instead of window minimizers;
  /// only meaningful when minimizer_w >= 2.
  bool syncmer = false;

  // --- streaming / memory bounds
  u64 batch_kmers = 1u << 20;  ///< per-rank occurrences per exchange batch
  double bloom_fpr = 0.05;

  // --- out-of-core block pipeline
  /// Stage 4 runs one read-exchange + alignment round per block and spills
  /// each round's sorted records to an external sort/merge; above 1, each
  /// rank's read partition is also split into this many 2-bit packed
  /// blocks. 1 = one round over unpacked reads. PAF/GFA/eval output is
  /// bitwise-identical for any value.
  u32 blocks = 1;
  /// Cap on unpacked resident sequence bytes per rank (local blocks +
  /// remote-read cache); 0 = no cap. Only meaningful with blocks > 1.
  u64 memory_budget_bytes = 0;
  /// Directory for alignment spill runs (empty = system temp dir).
  std::string spill_dir;

  // --- communication schedule
  /// Schedule of every stage's comm::Exchanger loop: pack batch i+1 and
  /// consume batch i-1 while batch i is in flight. Off = depth 0, the
  /// paper's bulk-synchronous pack -> exchange -> consume superstep. The
  /// alignment output and counters are bitwise-identical either way.
  bool overlap_comm = true;
  /// Stage-3 wire tasks per destination per exchange batch.
  u64 batch_overlap_tasks = 1u << 18;

  // --- overlap / alignment
  overlap::SeedFilterConfig seed_filter = overlap::SeedFilterConfig::one_seed();
  align::Scoring scoring;
  int xdrop = 25;
  int min_report_score = 0;  ///< drop alignments scoring below this
  /// Colinear-chain each pair's seeds and extend only the best chain's
  /// representative anchor (align/chain.hpp) instead of extending every
  /// seed. One extension per pair; identical output under the default
  /// one-seed filter (a single seed chains to itself).
  bool chain = true;

  // --- string graph (optional stage 5: src/sgraph/)
  bool stage5 = false;          ///< classify + reduce + lay out the string graph
  i32 min_overlap_score = 0;    ///< drop records below this before the graph
  u32 sgraph_fuzz = sgraph::kDefaultFuzz;  ///< end tolerance (bp) for classification

  // --- fault tolerance (src/core/checkpoint.hpp)
  /// Directory for stage checkpoints (empty = checkpointing off). Each
  /// completed stage persists per-rank payloads + a manifest completion line.
  std::string checkpoint_dir;
  /// Resume from checkpoint_dir's last complete stage instead of starting
  /// fresh. Requires a checkpoint written by a matching run (same reads,
  /// rank count, and output-determining parameters). The resumed run's
  /// PAF/GFA/eval outputs are byte-identical to an uninterrupted run's.
  bool resume = false;
  /// Ranks whose shard state is dropped on resume (graceful degradation
  /// after a rank loss): these ranks restore nothing from the checkpoint and
  /// rejoin with empty state, so their pairs are honestly missing from the
  /// output. Only meaningful with resume.
  std::vector<int> degraded_ranks;

  // --- observability (src/obs/)
  /// Collect wallclock spans on every rank (the --trace/--profile-report
  /// input). Purely additive: PAF/GFA/eval outputs and counters.tsv are
  /// byte-identical with spans on or off.
  bool collect_spans = false;

  // --- ground-truth evaluation (src/eval/; needs a TruthTable at run time)
  /// Score the run against ground truth: overlap recall/precision/F1 plus
  /// stage-5 unitig fidelity. run_pipeline must be handed the truth table.
  bool eval = false;
  u64 eval_min_overlap = 2000;  ///< genomic bases that make a pair a true overlap

  /// Resolved high-frequency ceiling (max_kmer_count, or the BELLA model
  /// value when max_kmer_count == 0).
  u32 resolved_max_kmer_count() const;
};

}  // namespace dibella::core
