#pragma once
/// \file cost_model.hpp
/// The network/compute cost model: replays per-rank traces — compute
/// segments and the exchange records they carry — against a Platform +
/// Topology, producing the virtual (simulated) per-stage timings the figure
/// benches report.
///
/// Model summary (parameters in platform.hpp):
///  * Compute: each segment's exact work units priced at the per-unit
///    kernel costs handed to evaluate (sum of units x cost), x
///    core_time_factor x cache_penalty(working_set / per-rank cache share).
///    BSP semantics — each superstep costs the max over ranks.
///  * Exchange (one Exchanger flush, an irregular all-to-all): per rank r,
///        t_r = sum_msgs latency + max(send_inter, recv_inter)/bw_rank
///              + (send_intra + recv_intra)/intra_bw
///    with bw_rank = node injection bandwidth / ranks-per-node; the
///    collective costs max_r t_r. The first exchange additionally pays a
///    per-peer setup cost (the paper's observed first-call anomaly, §6/§10).
///  * Overlap: a nonblocking exchange (kExchangeStart ... kExchange trace
///    bracket) hides its modeled time behind the virtual compute recorded
///    inside the bracket, per rank; only the remainder is *exposed*. Stage
///    totals report both the full and the exposed exchange time.

#include <map>
#include <string>
#include <vector>

#include "comm/exchange_record.hpp"
#include "netsim/platform.hpp"
#include "netsim/rank_trace.hpp"

namespace dibella::netsim {

/// Simulated timing for one pipeline stage.
struct StageTiming {
  double compute_virtual = 0.0;   ///< platform-scaled compute (BSP max per superstep)
  double exchange_virtual = 0.0;  ///< modeled exchange time (full, as if exposed)
  /// Modeled exchange time the ranks actually waited for: for a nonblocking
  /// exchange (kExchangeStart ... kExchange trace bracket), each rank's
  /// modeled cost is reduced by the virtual compute it ran while the
  /// exchange was in flight; one with no start marker is fully exposed. Always
  /// <= exchange_virtual, equal when nothing overlaps.
  double exchange_exposed_virtual = 0.0;
  u64 exchange_bytes = 0;         ///< total bytes over all ranks and calls
  u64 exchange_calls = 0;         ///< number of exchanges attributed to this stage

  /// Modeled exchange time hidden behind concurrent compute.
  double exchange_hidden_virtual() const {
    return exchange_virtual - exchange_exposed_virtual;
  }
  /// Stage makespan: compute plus only the exchange time that was exposed
  /// (hidden exchange time already elapsed inside the compute term).
  double total_virtual() const { return compute_virtual + exchange_exposed_virtual; }

  bool operator==(const StageTiming&) const = default;
};

/// Full evaluation result for one run.
struct TimingReport {
  /// Stage tag -> timing. A compute tag "bloom:pack" contributes to stage
  /// "bloom" with sub-tag "pack"; both granularities are kept.
  std::map<std::string, StageTiming> stages;
  std::vector<std::string> stage_order;  ///< first-appearance order of top-level stages

  /// Per-rank virtual seconds per top-level stage (compute + that rank's own
  /// exchange cost) — the input to the paper's load-imbalance metric (Fig 8).
  std::map<std::string, std::vector<double>> per_rank_stage_seconds;

  double total_virtual() const;
  double total_compute_virtual() const;
  double total_exchange_virtual() const;
  double total_exchange_exposed_virtual() const;

  const StageTiming& stage(const std::string& name) const;
  bool has_stage(const std::string& name) const { return stages.count(name) > 0; }

  bool operator==(const TimingReport&) const = default;
};

/// Strip a ":sub" suffix: top_level_stage("bloom:pack") == "bloom".
std::string top_level_stage(const std::string& stage);

class CostModel {
 public:
  CostModel(Platform platform, Topology topology);

  const Platform& platform() const { return platform_; }
  const Topology& topology() const { return topology_; }

  /// Compute-time multiplier for a segment with the given working set:
  /// core_time_factor x cache penalty.
  double compute_scale(u64 working_set_bytes) const;

  /// Modeled time of one collective, given every rank's record of it. `per_rank_seconds`, when non-null, receives each rank's own cost.
  /// `is_first_alltoallv` applies the first-call setup surcharge.
  double exchange_time(const std::vector<comm::ExchangeRecord>& per_rank,
                       bool is_first_alltoallv,
                       std::vector<double>* per_rank_seconds = nullptr) const;

  /// Replay traces into a report, pricing their compute units at `costs`;
  /// `traces[r]` describes rank r. The i-th exchange event of every trace
  /// is the same collective (SPMD), so every trace must hold the same
  /// number of exchange events.
  TimingReport evaluate(const std::vector<RankTrace>& traces,
                        const KernelCosts& costs) const;

 private:
  Platform platform_;
  Topology topology_;
};

}  // namespace dibella::netsim
