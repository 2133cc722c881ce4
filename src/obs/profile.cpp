#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "util/table.hpp"

namespace dibella::obs {

namespace {

bool has_prefix(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// Fixed-format seconds (locale-proof, byte-stable formatting).
std::string fmt_s(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

double max_of(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, x);
  return m;
}

}  // namespace

double StageProfile::exposed_max_s() const {
  // Exposed exchange time is measured on a different clock pairing than the
  // stage span itself, so monotonic-clock jitter can nudge it a hair past
  // the stage wall; clamp — exposed time can never exceed the stage wall.
  return std::min(max_of(rank_exposed_s), wall_max_s);
}
double StageProfile::hidden_max_s() const { return max_of(rank_hidden_s); }

ProfileReport build_profile(const Trace& trace, double calibration_s,
                            const netsim::TimingReport* model, std::size_t top_k) {
  ProfileReport rep;
  rep.ranks = trace.ranks();
  rep.calibration_s = calibration_s;
  rep.unclosed_spans = trace.unclosed_spans();
  rep.dropped_events = trace.dropped_events();

  std::map<std::string, std::size_t> stage_index;
  const auto stage_slot = [&](const std::string& name) -> StageProfile& {
    auto [it, inserted] = stage_index.try_emplace(name, rep.stages.size());
    if (inserted) {
      StageProfile sp;
      sp.name = name;
      sp.rank_wall_s.assign(static_cast<std::size_t>(rep.ranks), 0.0);
      sp.rank_exposed_s.assign(static_cast<std::size_t>(rep.ranks), 0.0);
      sp.rank_hidden_s.assign(static_cast<std::size_t>(rep.ranks), 0.0);
      rep.stages.push_back(std::move(sp));
    }
    return rep.stages[it->second];
  };

  std::map<std::string, SpanStat> agg;
  const auto observe = [&](const char* name, double dur_s) {
    SpanStat& s = agg[name];
    if (s.name.empty()) s.name = name;
    ++s.count;
    s.total_s += dur_s;
    s.max_s = std::max(s.max_s, dur_s);
  };

  for (int r = 0; r < rep.ranks; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    rep.unmatched_ends += trace.lane(r).unmatched_ends();
    // Replay the lane: a begin/end stack recovers span durations, and the
    // innermost open `stage:` span attributes exchange events to a stage.
    std::vector<std::pair<const char*, u64>> open;
    std::vector<std::string> stage_stack;
    for (const SpanEvent& ev : trace.lane(r).snapshot()) {
      switch (ev.phase) {
        case SpanEvent::Phase::kBegin:
          open.emplace_back(ev.name, ev.t_ns);
          if (has_prefix(ev.name, "stage:")) stage_stack.emplace_back(ev.name + 6);
          break;
        case SpanEvent::Phase::kEnd: {
          if (open.empty()) break;  // counted in unmatched_ends already
          const auto [bname, bt] = open.back();
          open.pop_back();
          const double dur_s = ev.t_ns >= bt ? static_cast<double>(ev.t_ns - bt) * 1e-9 : 0.0;
          if (has_prefix(bname, "stage:")) {
            if (!stage_stack.empty()) stage_stack.pop_back();
            StageProfile& sp = stage_slot(bname + 6);
            sp.rank_wall_s[rank] += dur_s;
            for (u8 i = 0; i < ev.n_args; ++i) {
              if (std::strcmp(ev.args[i].key, "rss_hwm_kb") == 0) {
                sp.rss_hwm_kb = std::max(sp.rss_hwm_kb, ev.args[i].value);
              }
            }
          } else {
            observe(bname, dur_s);
          }
          break;
        }
        case SpanEvent::Phase::kComplete: {
          const double dur_s = static_cast<double>(ev.dur_ns) * 1e-9;
          observe(ev.name, dur_s);
          // Blocked-in-wait() wallclock: the exposed half of the split.
          if (std::strcmp(ev.name, "exchange:exposed") == 0 && !stage_stack.empty()) {
            stage_slot(stage_stack.back()).rank_exposed_s[rank] += dur_s;
          }
          break;
        }
        case SpanEvent::Phase::kAsyncEnd:
          // The in-flight window's compute-concurrent share rides the args.
          if (!stage_stack.empty()) {
            for (u8 i = 0; i < ev.n_args; ++i) {
              if (std::strcmp(ev.args[i].key, "hidden_us") == 0) {
                stage_slot(stage_stack.back()).rank_hidden_s[rank] +=
                    static_cast<double>(ev.args[i].value) * 1e-6;
              }
            }
          }
          break;
        default:
          break;
      }
    }
  }

  for (StageProfile& sp : rep.stages) {
    double sum = 0.0;
    for (int r = 0; r < rep.ranks; ++r) {
      const double w = sp.rank_wall_s[static_cast<std::size_t>(r)];
      sum += w;
      if (w > sp.wall_max_s) {
        sp.wall_max_s = w;
        sp.crit_rank = r;
      }
    }
    sp.wall_mean_s = rep.ranks > 0 ? sum / rep.ranks : 0.0;
    rep.critical_path_s += sp.wall_max_s;
    rep.balanced_path_s += sp.wall_mean_s;
    if (model && model->has_stage(sp.name)) {
      const netsim::StageTiming& t = model->stage(sp.name);
      sp.model_exposed_s = t.exchange_exposed_virtual;
      sp.model_hidden_s = t.exchange_hidden_virtual();
    }
  }

  rep.hottest.reserve(agg.size());
  for (auto& [name, stat] : agg) rep.hottest.push_back(stat);
  std::sort(rep.hottest.begin(), rep.hottest.end(),
            [](const SpanStat& a, const SpanStat& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              return a.name < b.name;
            });
  if (rep.hottest.size() > top_k) rep.hottest.resize(top_k);
  return rep;
}

void write_profile_tsv(std::ostream& os, const ProfileReport& rep) {
  os << tsv_schema_header() << "\n";
  os << "section\tkey\tmetric\tvalue\n";
  const auto row = [&](const char* section, const std::string& key,
                       const char* metric, const std::string& value) {
    os << section << "\t" << key << "\t" << metric << "\t" << value << "\n";
  };
  row("run", "all", "ranks", std::to_string(rep.ranks));
  row("run", "all", "critical_path_s", fmt_s(rep.critical_path_s));
  row("run", "all", "balanced_path_s", fmt_s(rep.balanced_path_s));
  row("run", "all", "imbalance_loss_s", fmt_s(rep.critical_path_s - rep.balanced_path_s));
  row("run", "all", "calibration_s", fmt_s(rep.calibration_s));
  row("run", "all", "unclosed_spans", std::to_string(rep.unclosed_spans));
  row("run", "all", "unmatched_ends", std::to_string(rep.unmatched_ends));
  row("run", "all", "dropped_events", std::to_string(rep.dropped_events));
  for (const StageProfile& sp : rep.stages) {
    row("stage", sp.name, "wall_max_s", fmt_s(sp.wall_max_s));
    row("stage", sp.name, "wall_mean_s", fmt_s(sp.wall_mean_s));
    row("stage", sp.name, "imbalance", fmt_s(sp.imbalance()));
    row("stage", sp.name, "crit_rank", std::to_string(sp.crit_rank));
    row("stage", sp.name, "exchange_exposed_wall_s", fmt_s(sp.exposed_max_s()));
    row("stage", sp.name, "exchange_hidden_wall_s", fmt_s(sp.hidden_max_s()));
    row("stage", sp.name, "rss_hwm_mb", fmt_s(static_cast<double>(sp.rss_hwm_kb) / 1024.0));
    if (sp.model_exposed_s >= 0.0) {
      row("stage", sp.name, "model_exposed_virtual_s", fmt_s(sp.model_exposed_s));
      row("stage", sp.name, "model_hidden_virtual_s", fmt_s(sp.model_hidden_s));
    }
  }
  for (const StageProfile& sp : rep.stages) {
    for (int r = 0; r < rep.ranks; ++r) {
      const std::string key = sp.name + ".r" + std::to_string(r);
      const auto rank = static_cast<std::size_t>(r);
      row("stage_rank", key, "wall_s", fmt_s(sp.rank_wall_s[rank]));
      row("stage_rank", key, "exposed_s", fmt_s(sp.rank_exposed_s[rank]));
      row("stage_rank", key, "hidden_s", fmt_s(sp.rank_hidden_s[rank]));
    }
  }
  for (const SpanStat& s : rep.hottest) {
    row("hot", s.name, "count", std::to_string(s.count));
    row("hot", s.name, "total_s", fmt_s(s.total_s));
    row("hot", s.name, "max_s", fmt_s(s.max_s));
  }
}

void print_profile(std::ostream& os, const ProfileReport& rep) {
  util::Table stages({"stage", "wall max (s)", "mean (s)", "imbal", "crit rank",
                      "exposed (s)", "hidden (s)", "model exp (s)"});
  for (const StageProfile& sp : rep.stages) {
    stages.start_row();
    stages.cell(sp.name);
    stages.cell(sp.wall_max_s, 4);
    stages.cell(sp.wall_mean_s, 4);
    stages.cell(sp.imbalance(), 2);
    stages.cell(static_cast<u64>(sp.crit_rank));
    stages.cell(sp.exposed_max_s(), 4);
    stages.cell(sp.hidden_max_s(), 4);
    if (sp.model_exposed_s >= 0.0) {
      stages.cell(sp.model_exposed_s, 4);
    } else {
      stages.cell("-");
    }
  }
  stages.start_row();
  stages.cell("critical path");
  stages.cell(rep.critical_path_s, 4);
  stages.cell(rep.balanced_path_s, 4);
  stages.cell(rep.balanced_path_s > 0.0 ? rep.critical_path_s / rep.balanced_path_s : 1.0,
              2);
  stages.cell("");
  stages.cell("");
  stages.cell("");
  stages.cell("");
  // Kernel-cost calibration runs before the stages, outside the critical path.
  stages.start_row();
  stages.cell("calibration");
  stages.cell(rep.calibration_s, 4);
  for (int i = 0; i < 6; ++i) stages.cell("");
  os << "\n"
     << stages.to_text("wallclock profile on " + std::to_string(rep.ranks) +
                       " ranks (balanced = zero-imbalance bound)");

  util::Table hot({"hottest span", "count", "total (s)", "max (s)"});
  for (const SpanStat& s : rep.hottest) {
    hot.start_row();
    hot.cell(s.name);
    hot.cell(s.count);
    hot.cell(s.total_s, 4);
    hot.cell(s.max_s, 4);
  }
  os << "\n" << hot.to_text("top spans by aggregate wallclock");
  if (rep.unclosed_spans > 0 || rep.unmatched_ends > 0 || rep.dropped_events > 0) {
    os << "profile caveats: " << rep.unclosed_spans << " unclosed span(s), "
       << rep.unmatched_ends << " unmatched end(s), " << rep.dropped_events
       << " dropped event(s)\n";
  }
}

}  // namespace dibella::obs
