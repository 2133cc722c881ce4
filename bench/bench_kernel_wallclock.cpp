// Wall-clock kernel benchmark: times the alignment/overlap hot-path kernels
// against the retained reference implementations (align::ref and the former
// sort-then-group consolidation) on simulated preset-like workloads, and writes
// the perf-trajectory file BENCH_kernels.json.
//
// Unlike the bench_fig* binaries (virtual cost-model seconds), this measures
// REAL wall-clock time of:
//   * xdrop_extend: seed-anchored x-drop extension over noisy overlapping and
//                   divergent long-read pairs, align::ref vs the kernel this
//                   process dispatches to (ns/cell, pairs/s)
//   * xdrop_extend_avx2: the same pairs, scalar kernel vs AVX2 kernel (only
//                   on CPUs with AVX2)
//   * alignment_stage_pool: the whole stage-4 task loop
//                   (align::run_alignment_stage) on one rank over seeded
//                   x-drop pairs, 1 worker (baseline) vs one worker per
//                   available CPU (optimized); records asserted identical,
//                   ns/cell is wall-clock (it falls with the worker count,
//                   the CPU cost per cell does not)
//   * overlap_consolidate: overlap-stage task consolidation on many pairs
//                   with a few seeds each, the former sort-then-group
//                   consolidation vs the stage's pair runs: encode -> decode
//                   -> merge -> filter, tasks asserted equal (tasks/s). Pair
//                   runs lose here (speedup < 1): they pay off on many seeds
//                   per pair, not one or two
//   * pair_runs:    the same on dense seeding's shape (hundreds of seeds per
//                   pair)
//   * minimizer_sketch: whole-pipeline wall seconds, dense seeding
//                   (baseline) vs w=10 window minimizers (optimized) — the
//                   sketch layer's end-to-end payoff from cutting stage 1-3
//                   exchange volume and stage-4 task count; recall parity on
//                   the >= min_true_overlap truth set is asserted instead of
//                   output identity (the sampled pipeline reports fewer
//                   sub-threshold pairs by design)
//   * seed_chaining: whole-pipeline wall seconds under the all-seeds policy,
//                   extending every surviving seed (baseline) vs colinear
//                   chaining to one anchor per pair (optimized); the pair
//                   universe is asserted identical
//   * exchange_overlap: whole-pipeline exposed exchange seconds (modeled
//                   Cori), the exchange loop at depth 0 (bulk-synchronous,
//                   baseline) vs overlapped (optimized) — virtual
//                   cost-model time, deterministic by construction (see
//                   bench_exchange_overlap for the per-stage breakdown)
//   * sgraph_reduction: stage-5 string-graph transitive reduction,
//                   sequential graph::OverlapGraph oracle (baseline) vs the
//                   distributed sgraph stage over a 4-rank World
//                   (optimized); `cells` carries the edges removed and
//                   `items` the dovetail edges entering reduction (see
//                   bench_sgraph_reduction for the workload sweep)
//
// usage: bench_kernel_wallclock [--smoke] [--reps=N] [--out=PATH]
//   --smoke   tiny workload + fewer reps (CI-sized; shape, not significance)
//   --reps=N  timing repetitions per kernel, best-of-N (default 5; smoke 2)
//   --out     output JSON path (default BENCH_kernels.json)
//
// Every (baseline, optimized) pair is checksum-verified to produce identical
// results before the numbers are reported. Each JSON entry carries a `kind`:
// `kernel` (a kernel microbench), `pipeline` (whole-pipeline wall seconds) or
// `modeled` (netsim virtual seconds).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "align/alignment_stage.hpp"
#include "align/detail/xdrop_kernels.hpp"
#include "align/reference_kernels.hpp"
#include "align/xdrop.hpp"
#include "common/bench_common.hpp"
#include "common/exchange_overlap.hpp"
#include "common/sgraph_workload.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "kmer/dna.hpp"
#include "overlap/overlapper.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"
#include "util/cpus.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace dibella;

/// Tasks per encoded payload in the consolidation rows: one destination's
/// share of the overlap stage's default 2^18-task batch over 4 ranks.
constexpr std::size_t kPairRunBatch = std::size_t{1} << 16;

std::string random_dna(util::Xoshiro256& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

std::string mutate(const std::string& s, double rate, util::Xoshiro256& rng) {
  std::string out;
  out.reserve(s.size() + s.size() / 4);
  for (char c : s) {
    if (rng.bernoulli(rate)) {
      double roll = rng.uniform();
      if (roll < 0.4) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
      } else if (roll < 0.7) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
        out.push_back(c);
      }  // else deletion
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Best-of-N wall time of fn() (first call also warms caches/buffers).
template <class Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

struct BenchRow {
  std::string name;
  std::string kind = "kernel";  // "kernel", "pipeline" or "modeled"
  std::string unit;        // throughput unit, e.g. "pairs/s"
  double baseline_s = 0;   // best-of-reps wall seconds, reference kernel
  double optimized_s = 0;  // best-of-reps wall seconds, hot-path kernel
  double baseline_ns_per_cell = 0;  // 0 when cells don't apply
  double optimized_ns_per_cell = 0;
  double throughput = 0;  // optimized items/s
  u64 items = 0;
  u64 cells = 0;  // DP cells per pass (0 for consolidate)
  double speedup() const { return baseline_s > 0 ? baseline_s / optimized_s : 0; }
};

// --- workload: seed-anchored long-read pairs ---------------------------------

struct SeedTask {
  std::string a, b;
  u64 pos_a = 0, pos_b = 0;
};

/// PacBio-like pairs in the spirit of the paper's E. coli presets: mostly
/// true overlaps at ~15% per-read error, plus divergent (false-seed) pairs
/// that exercise the early-termination path (§9's load-imbalance source).
std::vector<SeedTask> make_seed_tasks(std::size_t n_pairs, std::size_t read_len,
                                      util::Xoshiro256& rng) {
  std::vector<SeedTask> tasks;
  tasks.reserve(n_pairs);
  for (std::size_t i = 0; i < n_pairs; ++i) {
    SeedTask t;
    if (i % 4 == 3) {
      // Divergent pair: unrelated reads, seed in the middle.
      t.a = random_dna(rng, read_len);
      t.b = random_dna(rng, read_len);
      t.pos_a = read_len / 2;
      t.pos_b = read_len / 2;
    } else {
      // True overlap over the second half of a / first half of b.
      std::string genome = random_dna(rng, read_len + read_len / 2);
      t.a = mutate(genome.substr(0, read_len), 0.15, rng);
      t.b = mutate(genome.substr(read_len / 2, read_len), 0.15, rng);
      t.pos_a = std::min<u64>(t.a.size() - 32, 3 * read_len / 4);
      t.pos_b = std::min<u64>(t.b.size() - 32, read_len / 4);
    }
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Times `baseline` and `optimized` (each SeedTask -> SeedAlignment) over
/// the same seed-anchored pairs and checks that they agree.
template <class Baseline, class Optimized>
BenchRow bench_seed_extension(std::string name, const std::vector<SeedTask>& tasks,
                              int reps, Baseline&& baseline, Optimized&& optimized) {
  BenchRow row;
  row.name = std::move(name);
  row.unit = "pairs/s";
  row.items = tasks.size();
  u64 sum_base = 0, cells_base = 0;
  row.baseline_s = best_of(reps, [&] {
    sum_base = cells_base = 0;
    for (const auto& t : tasks) {
      auto sa = baseline(t);
      sum_base += static_cast<u64>(sa.score) + sa.a_end + sa.b_end;
      cells_base += sa.cells;
    }
  });
  u64 sum_opt = 0, cells_opt = 0;
  row.optimized_s = best_of(reps, [&] {
    sum_opt = cells_opt = 0;
    for (const auto& t : tasks) {
      auto sa = optimized(t);
      sum_opt += static_cast<u64>(sa.score) + sa.a_end + sa.b_end;
      cells_opt += sa.cells;
    }
  });
  DIBELLA_CHECK(sum_base == sum_opt && cells_base == cells_opt,
                row.name + ": optimized kernel diverged from its baseline");
  row.cells = cells_opt;
  row.baseline_ns_per_cell = 1e9 * row.baseline_s / static_cast<double>(cells_opt);
  row.optimized_ns_per_cell = 1e9 * row.optimized_s / static_cast<double>(cells_opt);
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

/// xdrop_extend (align::ref -> dispatched kernel) and, on AVX2 hosts,
/// xdrop_extend_avx2 (scalar kernel -> AVX2 kernel), on the same pairs.
void bench_xdrop(std::size_t n_pairs, std::size_t read_len, int reps,
                 util::Xoshiro256& rng, std::vector<BenchRow>& rows) {
  const int k = 17, xdrop = 25;
  const align::Scoring sc;
  const auto tasks = make_seed_tasks(n_pairs, read_len, rng);
  align::Workspace ws;
  rows.push_back(bench_seed_extension(
      "xdrop_extend", tasks, reps,
      [&](const SeedTask& t) {
        return align::ref::align_from_seed(t.a, t.b, t.pos_a, t.pos_b, k, sc, xdrop);
      },
      [&](const SeedTask& t) {
        return align::align_from_seed(t.a, t.b, t.pos_a, t.pos_b, k, sc, xdrop, ws);
      }));
  if (!align::detail::avx2_supported()) {
    std::cout << "CPU without AVX2: no xdrop_extend_avx2 row\n";
    return;
  }
  auto with = [&](align::detail::XdropKernel kernel) {
    return [&, kernel](const SeedTask& t) {
      return align::detail::align_from_seed_with(kernel, t.a, t.b, t.pos_a, t.pos_b, k, sc,
                                                 xdrop, ws);
    };
  };
  rows.push_back(bench_seed_extension("xdrop_extend_avx2", tasks, reps,
                                      with(align::detail::xdrop_extend_scalar),
                                      with(align::detail::xdrop_extend_avx2)));
}

BenchRow bench_alignment_pool(std::size_t n_pairs, std::size_t read_len, int reps) {
  // Every seed-anchored pair becomes a stage-4 task over two reads of one
  // rank's store, so the row times the task loop itself: chunk claiming,
  // per-worker workspaces and the in-order record merge included. Its own
  // seed keeps the other rows' inputs independent of this one.
  util::Xoshiro256 rng(20261017);
  const auto pairs = make_seed_tasks(n_pairs, read_len, rng);
  std::vector<io::Read> reads;
  std::vector<u64> lens;
  std::vector<overlap::AlignmentTask> tasks;
  for (const auto& p : pairs) {
    overlap::AlignmentTask t;
    t.rid_a = reads.size();
    t.rid_b = reads.size() + 1;
    t.seeds.push_back(overlap::SeedPair{static_cast<u32>(p.pos_a),
                                        static_cast<u32>(p.pos_b), 1});
    tasks.push_back(std::move(t));
    for (const std::string* seq : {&p.a, &p.b}) {
      io::Read r;
      r.gid = reads.size();
      r.seq = *seq;
      lens.push_back(r.seq.size());
      reads.push_back(std::move(r));
    }
  }
  const io::ReadStore store(reads, io::ReadPartition(lens, 1), 0);
  align::AlignmentStageConfig cfg;
  const int cpus = util::available_cpus();

  BenchRow row;
  row.name = "alignment_stage_pool";
  row.unit = "tasks/s";
  row.items = tasks.size();
  std::vector<align::AlignmentRecord> serial, pooled;
  align::AlignmentStageResult serial_res, pooled_res;
  comm::World world(1);
  world.run([&](comm::Communicator& comm) {
    netsim::RankTrace trace;
    core::StageContext ctx{comm, trace};
    cfg.workers = 1;
    row.baseline_s = best_of(reps, [&] {
      serial = align::run_alignment_stage(ctx, store, tasks, cfg, &serial_res);
    });
    cfg.workers = cpus;
    row.optimized_s = best_of(reps, [&] {
      pooled = align::run_alignment_stage(ctx, store, tasks, cfg, &pooled_res);
    });
  });
  DIBELLA_CHECK(serial == pooled && serial_res == pooled_res,
                "alignment_stage_pool: " + std::to_string(cpus) +
                    " workers diverged from 1 worker");
  std::cout << "alignment_stage_pool: " << cpus << " workers\n";
  row.cells = pooled_res.dp_cells;
  row.baseline_ns_per_cell = 1e9 * row.baseline_s / static_cast<double>(row.cells);
  row.optimized_ns_per_cell = 1e9 * row.optimized_s / static_cast<double>(row.cells);
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

/// Random wire tasks: pairs over `n_reads` reads (either rid order, never a
/// self pair), positions below 20k, 70% same-orientation.
std::vector<overlap::OverlapTask> random_overlap_tasks(std::size_t n_tasks, u64 n_reads,
                                                       util::Xoshiro256& rng) {
  std::vector<overlap::OverlapTask> tasks;
  tasks.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    overlap::OverlapTask t;
    t.rid_a = rng.uniform_below(n_reads);
    t.rid_b = rng.uniform_below(n_reads);
    if (t.rid_a == t.rid_b) t.rid_b = (t.rid_a + 1) % n_reads;
    t.pos_a = static_cast<u32>(rng.uniform_below(20'000));
    t.pos_b = static_cast<u32>(rng.uniform_below(20'000));
    t.same_orientation = rng.bernoulli(0.7) ? 1 : 0;
    tasks.push_back(t);
  }
  return tasks;
}

/// The overlap stage's consolidation without the exchange: each slice of
/// `batch` tasks is one sender's payload of one batch (encode); the
/// receiver decodes every payload, merges them by pair and filters each
/// pair.
std::vector<overlap::AlignmentTask> consolidate_pair_runs(
    const std::vector<overlap::OverlapTask>& tasks, const overlap::SeedFilterConfig& policy,
    std::size_t batch) {
  overlap::PairSeedTable table;
  std::vector<overlap::OverlapTask> payload;
  std::vector<u8> bytes;
  for (std::size_t at = 0; at < tasks.size(); at += batch) {
    payload.assign(tasks.begin() + static_cast<std::ptrdiff_t>(at),
                   tasks.begin() + static_cast<std::ptrdiff_t>(std::min(tasks.size(), at + batch)));
    bytes.clear();
    overlap::encode_pair_runs(payload, bytes);
    table.add_runs(bytes.data(), bytes.size());
  }
  return table.consolidate(policy);
}

/// One consolidation row: baseline = the sort-then-group consolidation the
/// pair runs replaced (canonicalize, full-tuple sort, group, filter);
/// optimized = consolidate_pair_runs. The tasks are asserted equal.
BenchRow bench_pair_runs(std::string name, const std::vector<overlap::OverlapTask>& wire,
                         const overlap::SeedFilterConfig& policy, int reps) {
  BenchRow row;
  row.name = std::move(name);
  row.unit = "tasks/s";
  row.items = wire.size();
  std::vector<overlap::AlignmentTask> ref, opt;
  row.baseline_s = best_of(reps, [&] {
    auto v = wire;
    for (auto& t : v) {
      if (t.rid_a > t.rid_b) {
        std::swap(t.rid_a, t.rid_b);
        std::swap(t.pos_a, t.pos_b);
      }
    }
    std::sort(v.begin(), v.end(), [](const overlap::OverlapTask& x, const overlap::OverlapTask& y) {
      return std::tie(x.rid_a, x.rid_b, x.pos_a, x.pos_b, x.same_orientation) <
             std::tie(y.rid_a, y.rid_b, y.pos_a, y.pos_b, y.same_orientation);
    });
    ref.clear();
    for (std::size_t run = 0; run < v.size();) {
      std::vector<overlap::SeedPair> seeds;
      std::size_t end = run;
      for (; end < v.size() && v[end].rid_a == v[run].rid_a && v[end].rid_b == v[run].rid_b;
           ++end) {
        seeds.push_back({v[end].pos_a, v[end].pos_b, v[end].same_orientation});
      }
      ref.push_back({v[run].rid_a, v[run].rid_b, overlap::filter_seeds(std::move(seeds), policy)});
      run = end;
    }
  });
  row.optimized_s = best_of(reps, [&] { opt = consolidate_pair_runs(wire, policy, kPairRunBatch); });
  DIBELLA_CHECK(ref.size() == opt.size(), "pair runs lost or invented a pair");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    DIBELLA_CHECK(ref[i].rid_a == opt[i].rid_a && ref[i].rid_b == opt[i].rid_b &&
                      ref[i].seeds == opt[i].seeds,
                  "pair-run consolidation diverged from the sort-then-group oracle");
  }
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_consolidate(std::size_t n_tasks, std::size_t n_reads, int reps,
                           util::Xoshiro256& rng) {
  // Wire-task mix shaped like a sparse overlap stage: many pairs with a
  // handful of shared seeds each.
  return bench_pair_runs("overlap_consolidate", random_overlap_tasks(n_tasks, n_reads, rng),
                         overlap::SeedFilterConfig::all_seeds(17), reps);
}

BenchRow bench_dense_consolidate(std::size_t n_tasks, std::size_t n_pairs, int reps,
                                 util::Xoshiro256& rng) {
  // Dense seeding's shape (hifi-dense: ~280 reads, hundreds of seeds per
  // pair): n_pairs pairs of 280 reads share the tasks.
  std::vector<std::pair<u64, u64>> pairs;
  for (const auto& t : random_overlap_tasks(n_pairs, 280, rng)) pairs.emplace_back(t.rid_a, t.rid_b);
  auto wire = random_overlap_tasks(n_tasks, 280, rng);
  for (auto& t : wire) std::tie(t.rid_a, t.rid_b) = pairs[rng.uniform_below(pairs.size())];
  return bench_pair_runs("pair_runs", wire, overlap::SeedFilterConfig::one_seed(), reps);
}

BenchRow bench_minimizer_sketch(bool smoke, int reps) {
  // End-to-end pipeline wall seconds on a 4-rank World: dense seeding vs
  // w=10 window minimizers on the same reads. The two runs report different
  // (nested) pair sets by design, so instead of output identity this asserts
  // a quality floor: bounded recall loss, no aggregate F1 regression (the
  // sketch prunes spurious short overlaps, so precision rises), and real
  // sampling (< 1/3 the seeds). The tighter <= 1-point recall bar at the
  // default density is pinned by the eval tier on the preset profile the
  // default applies to (tests/test_property_sweeps.cpp); this workload's
  // 15% error rate sheds more of the threshold-straddling tail.
  auto preset = smoke ? simgen::tiny_test(42) : simgen::ecoli30x_like(0.02);
  auto sim = simgen::make_dataset(preset);
  auto truth =
      std::make_shared<const io::TruthTable>(simgen::truth_table(sim));
  core::PipelineConfig cfg;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  cfg.eval = true;
  // Recall parity is judged on the standard >= 2000-base overlap definition
  // (PipelineConfig's default): pairs sharing that much sequence keep a
  // sampled seed; the tiny preset's scaled 500-base threshold would count a
  // sub-threshold tail the sketch thins by design.

  BenchRow row;
  row.name = "minimizer_sketch";
  row.kind = "pipeline";
  row.unit = "reads/s";
  row.items = sim.reads.size();
  core::PipelineOutput dense, sketched;
  row.baseline_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.minimizer_w = 0;
    dense = core::run_pipeline(world, sim.reads, c, truth);
  });
  row.optimized_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.minimizer_w = 10;
    sketched = core::run_pipeline(world, sim.reads, c, truth);
  });
  DIBELLA_CHECK(sketched.counters.sketch_seeds_kept * 3 <
                    dense.counters.sketch_seeds_kept,
                "minimizer sketch kept too many seeds (not sampling)");
  DIBELLA_CHECK(sketched.eval.overlap.recall() >=
                    dense.eval.overlap.recall() - 0.08,
                "minimizer sketch lost too much recall");
  DIBELLA_CHECK(sketched.eval.overlap.f1() >= dense.eval.overlap.f1(),
                "minimizer sketch regressed aggregate F1");
  row.cells = sketched.counters.sketch_seeds_kept;
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_seed_chaining(bool smoke, int reps) {
  // Stage 4 under the all-seeds policy (the paper's high-intensity setting):
  // baseline extends every surviving seed of every pair; optimized chains
  // each pair's seeds and extends one representative anchor. Same pair
  // universe either way — only the extension count drops.
  auto preset = smoke ? simgen::tiny_test(42) : simgen::ecoli30x_like(0.02);
  auto sim = simgen::make_dataset(preset);
  core::PipelineConfig cfg;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  cfg.seed_filter = overlap::SeedFilterConfig::all_seeds(cfg.k);
  cfg.minimizer_w = 10;  // the preset-default sketched workload shape

  BenchRow row;
  row.name = "seed_chaining";
  row.kind = "pipeline";
  row.unit = "pairs/s";
  core::PipelineOutput every_seed, chained;
  row.baseline_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.chain = false;
    every_seed = core::run_pipeline(world, sim.reads, c);
  });
  row.optimized_s = best_of(reps, [&] {
    comm::World world(4);
    auto c = cfg;
    c.chain = true;
    chained = core::run_pipeline(world, sim.reads, c);
  });
  DIBELLA_CHECK(chained.counters.pairs_aligned == every_seed.counters.pairs_aligned,
                "chaining changed the aligned-pair universe");
  DIBELLA_CHECK(
      chained.counters.alignments_computed * 3 <=
          every_seed.counters.alignments_computed * 2,
      "chaining cut fewer than 1.5x of the seed extensions");
  row.items = chained.counters.pairs_aligned;
  row.cells = every_seed.counters.alignments_computed;  // extensions avoided from
  row.throughput = static_cast<double>(row.items) / row.optimized_s;
  return row;
}

BenchRow bench_exchange_overlap(bool smoke) {
  // Exposed-exchange seconds are deterministic virtual time; best-of-reps
  // doesn't apply. baseline = bulk-synchronous, optimized = overlapped.
  auto r = smoke ? benchx::measure_exchange_overlap(0.02, 4, 2, 1 << 15)
                 : benchx::measure_exchange_overlap(0.1, 8, 4, 1 << 18);
  BenchRow row;
  row.name = "exchange_overlap";
  row.kind = "modeled";
  row.unit = "exchanges/s";
  row.items = r.batches_on;
  row.baseline_s = r.exposed_off();
  row.optimized_s = r.exposed_on();
  row.throughput = row.optimized_s > 0 ? static_cast<double>(row.items) / row.optimized_s
                                       : 0.0;
  return row;
}

BenchRow bench_sgraph(bool smoke, int reps) {
  // Both paths are cross-checked against each other inside the measurement.
  // ~30x coverage layout (the paper's E. coli 30x shape).
  std::size_t n_reads = smoke ? 600 : 6'000;
  auto w = benchx::make_sgraph_workload(n_reads, n_reads * 200, 6'000, 500,
                                        /*seed=*/0x5647);
  sgraph::StringGraphConfig cfg;
  auto r = benchx::measure_sgraph_reduction(w, /*ranks=*/4, reps, cfg);
  BenchRow row;
  row.name = "sgraph_reduction";
  row.unit = "edges/s";
  row.items = r.edges_in;
  row.cells = r.edges_removed;  // for this entry: edges removed, not DP cells
  row.baseline_s = r.sequential_s;
  row.optimized_s = r.distributed_s;
  row.throughput =
      r.distributed_s > 0 ? static_cast<double>(r.edges_in) / r.distributed_s : 0.0;
  return row;
}

// --- output ------------------------------------------------------------------

std::string json_escapeless(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void write_json(const std::string& path, const std::vector<BenchRow>& rows,
                bool smoke, int reps) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"dibella-kernel-wallclock-v1\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "    {\n";
    os << "      \"name\": \"" << r.name << "\",\n";
    os << "      \"kind\": \"" << r.kind << "\",\n";
    os << "      \"items\": " << r.items << ",\n";
    os << "      \"cells\": " << r.cells << ",\n";
    os << "      \"baseline_s\": " << json_escapeless(r.baseline_s) << ",\n";
    os << "      \"optimized_s\": " << json_escapeless(r.optimized_s) << ",\n";
    os << "      \"baseline_ns_per_cell\": " << json_escapeless(r.baseline_ns_per_cell)
       << ",\n";
    os << "      \"optimized_ns_per_cell\": " << json_escapeless(r.optimized_ns_per_cell)
       << ",\n";
    os << "      \"throughput\": " << json_escapeless(r.throughput) << ",\n";
    os << "      \"throughput_unit\": \"" << r.unit << "\",\n";
    os << "      \"speedup\": " << json_escapeless(r.speedup()) << "\n";
    os << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  std::ofstream f(path, std::ios::trunc);
  DIBELLA_CHECK(static_cast<bool>(f), "cannot open " + path + " for writing");
  f << os.str();
  DIBELLA_CHECK(static_cast<bool>(f.flush()), "write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const int reps = static_cast<int>(args.get_i64("reps", smoke ? 2 : 5));
  const std::string out_path = args.get("out", "BENCH_kernels.json");

  benchx::print_header(
      "kernels", "wall-clock hot-path kernels vs retained reference implementations");

  util::Xoshiro256 rng(20260730);
  std::vector<BenchRow> rows;
  if (smoke) {
    bench_xdrop(60, 1200, reps, rng, rows);
    rows.push_back(bench_alignment_pool(400, 1200, reps));
    rows.push_back(bench_consolidate(60'000, 4'000, reps, rng));
    rows.push_back(bench_dense_consolidate(60'000, 400, reps, rng));
  } else {
    bench_xdrop(400, 4000, reps, rng, rows);
    rows.push_back(bench_alignment_pool(4000, 4000, reps));
    rows.push_back(bench_consolidate(2'000'000, 60'000, reps, rng));
    rows.push_back(bench_dense_consolidate(2'000'000, 4'000, reps, rng));
  }
  rows.push_back(bench_minimizer_sketch(smoke, reps));
  rows.push_back(bench_seed_chaining(smoke, reps));
  rows.push_back(bench_exchange_overlap(smoke));
  rows.push_back(bench_sgraph(smoke, reps));

  util::Table t({"kernel", "baseline (s)", "optimized (s)", "speedup", "ns/cell",
                 "throughput"});
  for (const auto& r : rows) {
    t.start_row();
    t.cell(r.name);
    t.cell(r.baseline_s, 4);
    t.cell(r.optimized_s, 4);
    t.cell(r.speedup(), 2);
    t.cell(r.optimized_ns_per_cell, 2);
    t.cell(util::format_si(r.throughput) + " " + r.unit);
  }
  std::cout << t.to_text("kernel wall-clock (best of " + std::to_string(reps) +
                         (smoke ? ", smoke workload)" : ")"));

  write_json(out_path, rows, smoke, reps);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
