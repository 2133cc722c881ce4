#include "netsim/cost_model.hpp"

#include <algorithm>
#include <numeric>

namespace dibella::netsim {

std::string top_level_stage(const std::string& stage) {
  auto colon = stage.find(':');
  return colon == std::string::npos ? stage : stage.substr(0, colon);
}

double TimingReport::total_virtual() const {
  return total_compute_virtual() + total_exchange_exposed_virtual();
}

double TimingReport::total_compute_virtual() const {
  double s = 0.0;
  for (const auto& name : stage_order) s += stages.at(name).compute_virtual;
  return s;
}

double TimingReport::total_exchange_virtual() const {
  double s = 0.0;
  for (const auto& name : stage_order) s += stages.at(name).exchange_virtual;
  return s;
}

double TimingReport::total_exchange_exposed_virtual() const {
  double s = 0.0;
  for (const auto& name : stage_order) s += stages.at(name).exchange_exposed_virtual;
  return s;
}

const StageTiming& TimingReport::stage(const std::string& name) const {
  auto it = stages.find(name);
  DIBELLA_CHECK(it != stages.end(), "TimingReport: unknown stage " + name);
  return it->second;
}

CostModel::CostModel(Platform platform, Topology topology)
    : platform_(std::move(platform)), topology_(topology) {
  DIBELLA_CHECK(topology_.nodes >= 1 && topology_.ranks_per_node >= 1,
                "CostModel: invalid topology");
}

double CostModel::compute_scale(u64 working_set_bytes) const {
  double scale = platform_.core_time_factor;
  double cache_share =
      platform_.llc_bytes_per_node / static_cast<double>(topology_.ranks_per_node);
  if (platform_.cache_miss_penalty > 1.0 && cache_share > 0.0 &&
      static_cast<double>(working_set_bytes) > cache_share) {
    // Smoothly interpolate between cache-resident (1.0) and DRAM-bound
    // (cache_miss_penalty) as the working set outgrows this rank's share of
    // the node's LLC. This is what produces the superlinear strong-scaling
    // speedups the paper highlights in §6-7 and Fig 11.
    double ratio = static_cast<double>(working_set_bytes) / cache_share;
    double penalty = 1.0 + (platform_.cache_miss_penalty - 1.0) * (1.0 - 1.0 / ratio);
    scale *= penalty;
  }
  return scale;
}

double CostModel::exchange_time(const std::vector<comm::ExchangeRecord>& per_rank,
                                bool is_first_alltoallv,
                                std::vector<double>* per_rank_seconds) const {
  const int P = topology_.total_ranks();
  DIBELLA_CHECK(static_cast<int>(per_rank.size()) == P,
                "exchange_time: record count != total ranks");
  if (per_rank_seconds) per_rank_seconds->assign(static_cast<std::size_t>(P), 0.0);

  // Receive-side byte totals: recv[r] split intra/inter.
  std::vector<double> recv_inter(static_cast<std::size_t>(P), 0.0);
  std::vector<double> recv_intra(static_cast<std::size_t>(P), 0.0);
  for (int s = 0; s < P; ++s) {
    const auto& bytes = per_rank[static_cast<std::size_t>(s)].bytes_to_peer;
    for (int d = 0; d < P; ++d) {
      double b = static_cast<double>(bytes[static_cast<std::size_t>(d)]);
      if (b <= 0.0 || s == d) continue;
      if (topology_.same_node(s, d)) {
        recv_intra[static_cast<std::size_t>(d)] += b;
      } else {
        recv_inter[static_cast<std::size_t>(d)] += b;
      }
    }
  }

  double bw_rank_inter =
      platform_.node_bw_bytes_per_s / static_cast<double>(topology_.ranks_per_node);
  double bw_rank_intra = platform_.intra_bw_bytes_per_s_per_rank;

  double worst = 0.0;
  for (int r = 0; r < P; ++r) {
    const auto& bytes = per_rank[static_cast<std::size_t>(r)].bytes_to_peer;
    double send_inter = 0.0, send_intra = 0.0;
    u64 msgs_inter = 0, msgs_intra = 0;
    for (int d = 0; d < P; ++d) {
      double b = static_cast<double>(bytes[static_cast<std::size_t>(d)]);
      if (b <= 0.0 || d == r) continue;
      if (topology_.same_node(r, d)) {
        send_intra += b;
        ++msgs_intra;
      } else {
        send_inter += b;
        ++msgs_inter;
      }
    }
    double t = static_cast<double>(msgs_inter) * platform_.inter_latency_s +
               static_cast<double>(msgs_intra) * platform_.intra_latency_s;
    if (bw_rank_inter > 0.0) {
      t += std::max(send_inter, recv_inter[static_cast<std::size_t>(r)]) / bw_rank_inter;
    }
    if (bw_rank_intra > 0.0) {
      t += (send_intra + recv_intra[static_cast<std::size_t>(r)]) / bw_rank_intra;
    }
    if (is_first_alltoallv) {
      t += platform_.first_alltoallv_setup_s_per_peer * static_cast<double>(P);
    }
    if (per_rank_seconds) (*per_rank_seconds)[static_cast<std::size_t>(r)] = t;
    worst = std::max(worst, t);
  }
  return worst;
}

TimingReport CostModel::evaluate(const std::vector<RankTrace>& traces,
                                 const KernelCosts& costs) const {
  const int P = topology_.total_ranks();
  DIBELLA_CHECK(static_cast<int>(traces.size()) == P, "evaluate: trace count != ranks");

  TimingReport report;
  auto touch_stage = [&](const std::string& name) -> StageTiming& {
    auto [it, inserted] = report.stages.try_emplace(name);
    if (inserted && name.find(':') == std::string::npos) {
      report.stage_order.push_back(name);
    }
    return it->second;
  };
  auto rank_stage_slot = [&](const std::string& name) -> std::vector<double>& {
    auto [it, inserted] =
        report.per_rank_stage_seconds.try_emplace(name, static_cast<std::size_t>(P), 0.0);
    return it->second;
  };

  // Every rank must have the same number of exchange events (SPMD).
  std::size_t n_exchanges = traces[0].exchange_count();
  for (const auto& t : traces) {
    DIBELLA_CHECK(t.exchange_count() == n_exchanges,
                  "evaluate: ranks disagree on collective count");
  }

  // Per-rank cursors into the event streams; supersteps are delimited by
  // exchange events.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(P), 0);
  bool seen_alltoallv = false;
  // Per-rank virtual compute executed after a kExchangeStart marker in the
  // current superstep — i.e. while this superstep's exchange was in flight.
  // The exchange's modeled cost can hide behind it.
  std::vector<double> overlap_window(static_cast<std::size_t>(P), 0.0);

  for (std::size_t step = 0; step <= n_exchanges; ++step) {
    // --- compute part of this superstep: advance every rank to its next
    // exchange event (or stream end), accumulating per-stage virtual time.
    std::map<std::string, double> step_max;           // stage -> max over ranks
    for (int r = 0; r < P; ++r) {
      std::map<std::string, double> mine;
      const auto& events = traces[static_cast<std::size_t>(r)].events();
      auto& c = cursor[static_cast<std::size_t>(r)];
      auto& window = overlap_window[static_cast<std::size_t>(r)];
      window = 0.0;
      bool in_flight = false;
      while (c < events.size() && events[c].kind != TraceEvent::Kind::kExchange) {
        const auto& ev = events[c];
        if (ev.kind == TraceEvent::Kind::kExchangeStart) {
          in_flight = true;
        } else {
          const double cpu_seconds =
              std::inner_product(ev.units.begin(), ev.units.end(), costs.begin(), 0.0);
          double virt = cpu_seconds * compute_scale(ev.working_set_bytes);
          mine[ev.stage] += virt;
          if (in_flight) window += virt;
        }
        ++c;
      }
      for (const auto& [stage, secs] : mine) {
        step_max[stage] = std::max(step_max[stage], secs);
        rank_stage_slot(top_level_stage(stage))[static_cast<std::size_t>(r)] += secs;
      }
    }
    for (const auto& [stage, secs] : step_max) {
      touch_stage(top_level_stage(stage)).compute_virtual += secs;
      if (stage.find(':') != std::string::npos) {
        touch_stage(stage).compute_virtual += secs;
      }
    }

    if (step == n_exchanges) break;

    // --- exchange part: all ranks' cursors sit on the aligned exchange event.
    std::vector<comm::ExchangeRecord> call(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      const auto& events = traces[static_cast<std::size_t>(r)].events();
      auto& c = cursor[static_cast<std::size_t>(r)];
      DIBELLA_CHECK(c < events.size() && events[c].kind == TraceEvent::Kind::kExchange,
                    "evaluate: superstep misalignment");
      call[static_cast<std::size_t>(r)] = events[c].exchange;
      ++c;
    }
    const bool is_first = !seen_alltoallv;
    seen_alltoallv = true;
    std::vector<double> per_rank_secs;
    double t = exchange_time(call, is_first, &per_rank_secs);
    // Exposed cost: each rank's modeled cost minus the virtual compute it
    // ran while this exchange was in flight (0 for an exchange with no start
    // marker, so exposed == full there). BSP semantics: the collective costs the max.
    double exposed = 0.0;
    for (int r = 0; r < P; ++r) {
      double e = std::max(0.0, per_rank_secs[static_cast<std::size_t>(r)] -
                                   overlap_window[static_cast<std::size_t>(r)]);
      per_rank_secs[static_cast<std::size_t>(r)] = e;
      exposed = std::max(exposed, e);
    }
    std::string stage = top_level_stage(call[0].stage);
    auto& st = touch_stage(stage);
    st.exchange_virtual += t;
    st.exchange_exposed_virtual += exposed;
    st.exchange_calls += 1;
    for (int r = 0; r < P; ++r) {
      st.exchange_bytes += call[static_cast<std::size_t>(r)].total_bytes();
      rank_stage_slot(stage)[static_cast<std::size_t>(r)] +=
          per_rank_secs[static_cast<std::size_t>(r)];
    }
  }

  return report;
}

}  // namespace dibella::netsim
