#pragma once
/// \file profile.hpp
/// Post-run critical-path analysis over an obs::Trace — the `--profile-report`
/// stdout tables and the `profile.tsv` artifact.
///
/// The report distills the raw span timelines into the questions the paper's
/// perf story asks (§6-§9):
///   * per-stage critical path: each stage's wallclock is the max over ranks
///     of its `stage:<name>` span (BSP semantics), and the run's critical
///     path is the sum of those maxima; the sum of per-stage means is the
///     perfectly-balanced bound, so the gap is time lost to imbalance;
///   * per-rank load-imbalance factors: max/mean of the per-rank stage
///     walls (1.0 = perfect), plus which rank was critical;
///   * the process's peak RSS as each stage closed, so a peak can be
///     attributed to the stage that set it;
///   * exposed vs hidden exchange wallclock per stage — exposed is time
///     blocked in wait(), hidden is the flush->wait
///     in-flight window — cross-checked against the netsim cost model's
///     *virtual* exposed/hidden split when a TimingReport is supplied;
///   * top-k hottest span names by aggregate duration across all ranks.
///
/// profile.tsv is schema-versioned (`#schema=2`) with fixed columns
/// `section\tkey\tmetric\tvalue` and deterministic row order (sections in
/// fixed order; stages in pipeline order; ranks ascending). Values are
/// wallclock measurements, so the *values* vary run to run — the row set and
/// ordering do not, except for which span names make the `hot` top-k.

#include <ostream>
#include <string>
#include <vector>

#include "netsim/cost_model.hpp"
#include "obs/span.hpp"

namespace dibella::obs {

/// The first line of every TSV artifact (counters.tsv, timings.tsv,
/// profile.tsv), without its newline. Version 1 was the headerless form;
/// loaders skip `#`-prefixed lines, so they read both.
inline const char* tsv_schema_header() { return "#schema=2"; }

/// Aggregate stats for one span name across every rank.
struct SpanStat {
  std::string name;
  u64 count = 0;
  double total_s = 0.0;
  double max_s = 0.0;
};

/// One pipeline stage's wallclock profile across ranks.
struct StageProfile {
  std::string name;                  ///< "bloom", "ht", ... ("stage:" stripped)
  std::vector<double> rank_wall_s;   ///< per-rank stage:<name> span wallclock
  std::vector<double> rank_exposed_s;  ///< per-rank blocked-in-collective time
  std::vector<double> rank_hidden_s;   ///< per-rank in-flight exchange window
  double wall_max_s = 0.0;           ///< critical-path contribution
  double wall_mean_s = 0.0;
  int crit_rank = 0;                 ///< argmax rank
  /// Max over ranks of the process's peak RSS (KiB) as the stage span
  /// closed: its `rss_hwm_kb` arg (0 when the spans carry none).
  u64 rss_hwm_kb = 0;
  /// Modeled (virtual) exposed/hidden exchange seconds from the netsim cost
  /// model, for cross-checking schedule quality; -1 when no model report was
  /// supplied or the model has no such stage.
  double model_exposed_s = -1.0;
  double model_hidden_s = -1.0;

  /// max/mean of the per-rank walls; 1.0 = perfectly balanced.
  double imbalance() const {
    return wall_mean_s > 0.0 ? wall_max_s / wall_mean_s : 1.0;
  }
  double exposed_max_s() const;
  double hidden_max_s() const;
};

/// The full distilled report.
struct ProfileReport {
  int ranks = 0;
  std::vector<StageProfile> stages;  ///< pipeline (first-appearance) order
  double critical_path_s = 0.0;      ///< sum over stages of wall_max
  double balanced_path_s = 0.0;      ///< sum over stages of wall_mean
  /// Seconds the run's caller spent calibrating kernel costs before the
  /// ranks started. Outside every stage span, so it is not part of
  /// critical_path_s.
  double calibration_s = 0.0;
  std::vector<SpanStat> hottest;     ///< top-k by total_s (stage roots excluded)
  u64 unclosed_spans = 0;            ///< spans force-closed at finalize
  u64 unmatched_ends = 0;            ///< kEnd events with no open span
  u64 dropped_events = 0;            ///< ring-overflow losses (profile is partial)
};

/// Distill `trace` (finalized) into a report. `calibration_s` is the wall
/// time of the caller's kernel-cost calibration. `model`, when non-null,
/// fills the per-stage model_exposed_s/model_hidden_s cross-check columns.
ProfileReport build_profile(const Trace& trace, double calibration_s,
                            const netsim::TimingReport* model = nullptr,
                            std::size_t top_k = 10);

/// The profile.tsv artifact: `#schema=2`, `section\tkey\tmetric\tvalue`.
void write_profile_tsv(std::ostream& os, const ProfileReport& report);

/// Human-readable report (util::Table) for `--profile-report` stdout.
void print_profile(std::ostream& os, const ProfileReport& report);

}  // namespace dibella::obs
