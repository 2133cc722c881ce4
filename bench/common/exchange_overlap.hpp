#pragma once
/// \file exchange_overlap.hpp
/// Shared measurement for the exchange-overlap benchmarks: run the pipeline
/// on the same workload under both communication schedules and compare the
/// modeled *exposed* exchange time (the seconds ranks actually wait on the
/// network; the overlapped schedule hides the rest behind compute).
///
/// The numbers are virtual cost-model seconds, so they are deterministic —
/// compute accounting in the exchange-heavy stages is work-based, and the
/// wire volumes are exact — which makes the before/after quotable from CI.
/// The run also asserts the two schedules' alignment outputs are identical,
/// so the bench doubles as an end-to-end equivalence check.

#include <algorithm>

#include "bench_common.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "netsim/cost_model.hpp"
#include "netsim/platform.hpp"
#include "simgen/presets.hpp"

namespace dibella::benchx {

struct ExchangeOverlapResult {
  netsim::TimingReport report_off;  ///< bulk-synchronous schedule
  netsim::TimingReport report_on;   ///< overlapped schedule
  u64 batches_off = 0;              ///< exchange collectives, bulk-synchronous run
  u64 batches_on = 0;               ///< exchange collectives, overlapped run

  double exposed_off() const { return report_off.total_exchange_exposed_virtual(); }
  double exposed_on() const { return report_on.total_exchange_exposed_virtual(); }
  double hidden_on() const {
    return report_on.total_exchange_virtual() - report_on.total_exchange_exposed_virtual();
  }
};

/// Run both schedules on an E. coli 30x-like workload of `scale` over
/// `ranks` SPMD ranks (modeled as Cori nodes of `ranks_per_node`), with
/// `batch_kmers`-sized streaming batches so the exchanges actually batch.
inline ExchangeOverlapResult measure_exchange_overlap(double scale, int ranks,
                                                      int ranks_per_node,
                                                      u64 batch_kmers) {
  auto preset = simgen::ecoli30x_like(scale);
  auto sim = simgen::make_dataset(preset);

  core::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  cfg.batch_kmers = batch_kmers;
  // Scale the stage-3 task batches with the workload so its exchange
  // actually batches at bench sizes too.
  cfg.batch_overlap_tasks = std::max<u64>(1024, batch_kmers / 16);

  comm::World world(ranks);
  cfg.overlap_comm = false;
  auto off = core::run_pipeline(world, sim.reads, cfg);
  cfg.overlap_comm = true;
  auto on = core::run_pipeline(world, sim.reads, cfg);

  // The schedules must be observationally identical before their timings
  // are worth comparing.
  const auto off_records = off.merged_alignments();
  const auto on_records = on.merged_alignments();
  DIBELLA_CHECK(off_records.size() == on_records.size(),
                "overlap bench: schedules reported different alignment counts");
  for (std::size_t i = 0; i < off_records.size(); ++i) {
    const auto& x = off_records[i];
    const auto& y = on_records[i];
    DIBELLA_CHECK(x.rid_a == y.rid_a && x.rid_b == y.rid_b && x.score == y.score &&
                      x.a_begin == y.a_begin && x.a_end == y.a_end &&
                      x.b_begin == y.b_begin && x.b_end == y.b_end,
                  "overlap bench: schedules diverged at alignment " + std::to_string(i));
  }

  const netsim::Platform platform = netsim::cori();
  const netsim::Topology topo{ranks / ranks_per_node, ranks_per_node};
  ExchangeOverlapResult result;
  result.report_off = off.evaluate(platform, topo, bench_costs());
  result.report_on = on.evaluate(platform, topo, bench_costs());
  for (const auto& name : result.report_off.stage_order) {
    result.batches_off += result.report_off.stage(name).exchange_calls;
  }
  for (const auto& name : result.report_on.stage_order) {
    result.batches_on += result.report_on.stage(name).exchange_calls;
  }
  return result;
}

}  // namespace dibella::benchx
