#pragma once
/// \file bench_common.hpp
/// Shared experiment runner for the per-figure/table benchmark binaries.
///
/// Every figure bench follows the same recipe: build a workload (scaled
/// E. coli 30x / 100x analogue), run the pipeline once per node count, then
/// replay the recorded traces against one or more Table 1 platform models
/// and print the series the paper's figure reports.
///
/// Scaling knobs (environment):
///   DIBELLA_BENCH_SCALE          multiply workload genome sizes (default 1.0;
///                                the default workloads are deliberately small
///                                so the full suite runs in minutes)
///   DIBELLA_BENCH_RANKS_PER_NODE simulated ranks (cores) per node (default 4)
///   DIBELLA_BENCH_MAX_NODES      largest node count in the sweeps (default 32)

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "netsim/cost_model.hpp"
#include "netsim/platform.hpp"
#include "simgen/presets.hpp"
#include "util/table.hpp"

namespace dibella::benchx {

double bench_scale();
int bench_ranks_per_node();
int bench_max_nodes();
/// {1, 2, 4, ..., bench_max_nodes()}.
std::vector<int> bench_node_counts();

/// Benchmark analogues of the paper's two datasets (§5). Genome sizes are
/// chosen so the whole suite completes quickly at scale 1; coverage, read
/// length distribution, error profile, and therefore the figure *shapes*
/// match the full-size datasets. DIBELLA_BENCH_SCALE grows them.
simgen::DatasetPreset bench_preset_30x();
simgen::DatasetPreset bench_preset_100x();

/// Generate (and process-locally cache) the reads of a preset.
const std::vector<io::Read>& dataset(const simgen::DatasetPreset& preset);

/// Pipeline config matched to a preset's data model.
core::PipelineConfig config_for(const simgen::DatasetPreset& preset,
                                const overlap::SeedFilterConfig& seeds);

/// Per-unit kernel costs, measured once in this process, on the first call
/// (make it outside any World::run).
const netsim::KernelCosts& bench_costs();

/// One pipeline execution at a node count.
struct ScalingRun {
  int nodes = 0;
  int ranks = 0;
  core::PipelineOutput out;
  /// The costs that price out's work units: bench_costs() for a run measured
  /// by this process, or the costs stored with a cached one.
  netsim::KernelCosts costs{};

  /// out's traces priced at `costs` on `platform`, at `nodes` nodes of
  /// bench_ranks_per_node() ranks.
  netsim::TimingReport evaluate(const netsim::Platform& platform) const;
};

/// Run the pipeline at every node count (ranks = nodes x ranks-per-node).
/// Results are cached in-process AND on disk under
/// $DIBELLA_BENCH_CACHE_DIR (default .dibella_bench_cache/) so the figure
/// binaries that share a workload (Figs 3-9, 12, 13 all use E30 one-seed)
/// measure once and replay many times. A cache file stores the runs' work
/// units and the costs that priced them, so a cached figure reprints
/// identically. Delete the cache directory (or set DIBELLA_BENCH_CACHE=0) to
/// force re-measurement.
const std::vector<ScalingRun>& run_scaling(const simgen::DatasetPreset& preset,
                                           const core::PipelineConfig& cfg,
                                           const std::string& cache_key);

/// Millions per second.
double mrate(u64 count, double seconds);

/// Strong-scaling efficiency relative to 1 node: t1 / (n * tn).
double efficiency(double t1, double tn, int nodes);

/// Print the standard bench header line.
void print_header(const std::string& figure, const std::string& description);

}  // namespace dibella::benchx
