#include "eval/report.hpp"

#include <iomanip>
#include <sstream>

namespace dibella::eval {

EvalReport evaluate(const io::TruthTable& truth,
                    const std::vector<align::AlignmentRecord>& alignments,
                    const sgraph::UnitigResult* layout, const EvalConfig& cfg) {
  align::VectorRecordSource source(alignments);
  return evaluate(truth, source, layout, cfg);
}

EvalReport evaluate(const io::TruthTable& truth, align::RecordSource& alignments,
                    const sgraph::UnitigResult* layout, const EvalConfig& cfg) {
  OverlapTruth oracle(truth, cfg.min_true_overlap);
  EvalReport report;
  report.config = cfg;
  report.overlap = oracle.score_alignments(alignments);
  if (layout != nullptr) {
    report.has_unitigs = true;
    report.unitigs = score_unitigs(layout->unitigs, truth, oracle);
  }
  return report;
}

void write_eval_tsv(std::ostream& os, const EvalReport& report) {
  os << kEvalTsvHeader << '\n';
  auto row = [&](const char* section, const char* metric, u64 v) {
    os << section << '\t' << metric << '\t' << v << '\n';
  };
  auto ratio = [&](const char* metric, double v) {
    // Fixed 6-decimal rendering in a local stream, so the caller's float
    // formatting flags are left untouched.
    std::ostringstream fixed;
    fixed << std::fixed << std::setprecision(6) << v;
    os << "overlap\t" << metric << '\t' << fixed.str() << '\n';
  };
  if (report.degraded_ranks > 0) {
    row("run", "degraded_ranks", report.degraded_ranks);
  }
  const auto& ov = report.overlap;
  row("overlap", "min_true_overlap", report.config.min_true_overlap);
  row("overlap", "true_pairs", ov.true_pairs);
  row("overlap", "reported_pairs", ov.reported_pairs);
  row("overlap", "true_positives", ov.true_positives);
  row("overlap", "false_positives", ov.false_positives);
  row("overlap", "false_negatives", ov.false_negatives());
  ratio("recall", ov.recall());
  ratio("precision", ov.precision());
  ratio("f1", ov.f1());
  for (const auto& [bin, count] : ov.truth_by_len.bins()) {
    os << "truth_by_len\t" << bin << '\t' << count << '\n';
  }
  for (const auto& [bin, count] : ov.found_by_len.bins()) {
    os << "found_by_len\t" << bin << '\t' << count << '\n';
  }
  if (!report.has_unitigs) return;
  const auto& un = report.unitigs;
  row("unitig", "unitigs", un.unitigs);
  row("unitig", "circular_unitigs", un.circular_unitigs);
  row("unitig", "misjoined_unitigs", un.misjoined_unitigs);
  row("unitig", "breakpoints", un.breakpoints);
  row("unitig", "adjacencies", un.adjacencies);
  row("unitig", "unitig_n50", un.unitig_n50);
  row("unitig", "longest_unitig_span", un.longest_unitig_span);
  row("unitig", "truth_n50", un.truth_n50);
  row("unitig", "reads_in_unitigs", un.reads_in_unitigs);
  row("unitig", "reads_unplaced", un.reads_unplaced);
  row("unitig", "truth_contained_reads", un.truth_contained_reads);
}

}  // namespace dibella::eval
