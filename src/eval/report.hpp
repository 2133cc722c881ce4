#pragma once
/// \file report.hpp
/// The combined ground-truth evaluation report and its `eval.tsv`
/// serialization — the quality surface a pipeline run is pinned on, the way
/// alignments.paf pins its output surface.
///
/// eval.tsv is a uniform three-column TSV (`section  metric  value`):
///   * `overlap` rows: the truth/reported/TP/FP counts and the
///     recall/precision/F1 ratios (fixed 6-decimal rendering — derived from
///     integer counts, so equal counts give byte-equal files);
///   * `truth_by_len` / `found_by_len` rows: per-overlap-length recall
///     histogram (metric = bin lower bound in bases, value = pair count);
///   * `unitig` rows: stage-5 fidelity (breakpoints, misjoins, N50s,
///     contained-read accounting), present only when a layout was built.
/// Every value is deterministic in (reads, truth, config) and independent of
/// rank count and communication schedule.

#include <ostream>

#include "eval/overlap_truth.hpp"
#include "eval/unitig_fidelity.hpp"

namespace dibella::eval {

/// eval.tsv's header row.
inline constexpr const char* kEvalTsvHeader = "section\tmetric\tvalue";

struct EvalConfig {
  /// Genomic bases two reads must share to count as a true overlap.
  u64 min_true_overlap = 2000;
};

struct EvalReport {
  EvalConfig config;
  OverlapScore overlap;
  bool has_unitigs = false;  ///< stage 5 ran; `unitigs` is meaningful
  UnitigScore unitigs;
  /// Ranks whose shard state was dropped after a rank loss (graceful
  /// degradation). Nonzero adds a `run  degraded_ranks` row to eval.tsv so a
  /// degraded run's honest (lower) recall is never mistaken for a clean one.
  u32 degraded_ranks = 0;
};

/// Evaluate a pipeline run: score `alignments` against `truth`, and — when
/// `layout` is non-null (stage 5 ran) — its unitigs too.
EvalReport evaluate(const io::TruthTable& truth,
                    const std::vector<align::AlignmentRecord>& alignments,
                    const sgraph::UnitigResult* layout, const EvalConfig& cfg);

/// Streaming variant over a record source (spill merges, block mode).
EvalReport evaluate(const io::TruthTable& truth, align::RecordSource& alignments,
                    const sgraph::UnitigResult* layout, const EvalConfig& cfg);

/// Serialize as eval.tsv (see file comment).
void write_eval_tsv(std::ostream& os, const EvalReport& report);

}  // namespace dibella::eval
