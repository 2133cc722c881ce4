#include "common/bench_common.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "comm/world.hpp"
#include "util/env.hpp"

namespace dibella::benchx {

namespace {

// ---- on-disk cache of ScalingRun vectors --------------------------------
// A simple versioned little-endian binary format; bump kCacheVersion when
// any serialized structure changes.
constexpr u64 kCacheVersion = 4;

void put_u64(std::ostream& os, u64 v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
u64 get_u64(std::istream& is) {
  u64 v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
void put_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
double get_f64(std::istream& is) {
  double v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
void put_str(std::ostream& os, const std::string& s) {
  put_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}
std::string get_str(std::istream& is) {
  std::string s(get_u64(is), '\0');
  is.read(s.data(), static_cast<std::streamsize>(s.size()));
  return s;
}

void save_runs(const std::string& path, const std::vector<ScalingRun>& runs) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) return;  // cache is best-effort
  put_u64(os, kCacheVersion);
  put_u64(os, runs.size());
  for (const auto& run : runs) {
    put_u64(os, static_cast<u64>(run.nodes));
    put_u64(os, static_cast<u64>(run.ranks));
    const auto& c = run.out.counters;
    for (u64 v : {c.kmers_parsed, c.candidate_keys, c.retained_kmers, c.purged_keys,
                  c.overlap_tasks, c.read_pairs, c.seeds_after_filter,
                  c.reads_exchanged, c.read_bytes_exchanged, c.pairs_aligned,
                  c.alignments_computed, c.dp_cells, c.alignments_reported,
                  static_cast<u64>(c.max_kmer_count)}) {
      put_u64(os, v);
    }
    put_u64(os, run.out.per_rank_pairs_aligned.size());
    for (u64 v : run.out.per_rank_pairs_aligned) put_u64(os, v);
    put_u64(os, run.out.traces.size());
    for (const auto& trace : run.out.traces) {
      put_u64(os, trace.events().size());
      for (const auto& ev : trace.events()) {
        put_u64(os, static_cast<u64>(ev.kind));
        put_str(os, ev.stage);
        put_f64(os, ev.cpu_seconds);
        put_u64(os, ev.working_set_bytes);
        put_u64(os, ev.exchange_seq);
      }
    }
    put_u64(os, run.out.exchange_log.size());
    for (const auto& log : run.out.exchange_log) {
      put_u64(os, log.size());
      for (const auto& rec : log) {
        put_u64(os, rec.seq);
        put_u64(os, static_cast<u64>(rec.op));
        put_str(os, rec.stage);
        put_f64(os, rec.wall_seconds);
        put_f64(os, rec.hidden_wall_seconds);
        put_u64(os, rec.bytes_to_peer.size());
        for (u64 b : rec.bytes_to_peer) put_u64(os, b);
      }
    }
  }
}

bool load_runs(const std::string& path, std::vector<ScalingRun>* runs) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  if (get_u64(is) != kCacheVersion) return false;
  std::size_t n = get_u64(is);
  runs->clear();
  for (std::size_t r = 0; r < n; ++r) {
    ScalingRun run;
    run.nodes = static_cast<int>(get_u64(is));
    run.ranks = static_cast<int>(get_u64(is));
    auto& c = run.out.counters;
    c.kmers_parsed = get_u64(is);
    c.candidate_keys = get_u64(is);
    c.retained_kmers = get_u64(is);
    c.purged_keys = get_u64(is);
    c.overlap_tasks = get_u64(is);
    c.read_pairs = get_u64(is);
    c.seeds_after_filter = get_u64(is);
    c.reads_exchanged = get_u64(is);
    c.read_bytes_exchanged = get_u64(is);
    c.pairs_aligned = get_u64(is);
    c.alignments_computed = get_u64(is);
    c.dp_cells = get_u64(is);
    c.alignments_reported = get_u64(is);
    c.max_kmer_count = static_cast<u32>(get_u64(is));
    run.out.per_rank_pairs_aligned.resize(get_u64(is));
    for (auto& v : run.out.per_rank_pairs_aligned) v = get_u64(is);
    run.out.traces.resize(get_u64(is));
    for (auto& trace : run.out.traces) {
      std::size_t events = get_u64(is);
      for (std::size_t e = 0; e < events; ++e) {
        auto kind = static_cast<netsim::TraceEvent::Kind>(get_u64(is));
        std::string stage = get_str(is);
        double cpu = get_f64(is);
        u64 ws = get_u64(is);
        u64 seq = get_u64(is);
        if (kind == netsim::TraceEvent::Kind::kCompute) {
          trace.add_compute(std::move(stage), cpu, ws);
        } else if (kind == netsim::TraceEvent::Kind::kExchangeStart) {
          trace.add_exchange_start();
        } else {
          trace.add_exchange(seq);
        }
      }
    }
    run.out.exchange_log.resize(get_u64(is));
    for (auto& log : run.out.exchange_log) {
      log.resize(get_u64(is));
      for (auto& rec : log) {
        rec.seq = get_u64(is);
        rec.op = static_cast<comm::CollectiveOp>(get_u64(is));
        rec.stage = get_str(is);
        rec.wall_seconds = get_f64(is);
        rec.hidden_wall_seconds = get_f64(is);
        rec.bytes_to_peer.resize(get_u64(is));
        for (auto& b : rec.bytes_to_peer) b = get_u64(is);
      }
    }
    runs->push_back(std::move(run));
  }
  return is.good();
}

std::string cache_path(const std::string& key) {
  namespace fs = std::filesystem;
  std::string dir = util::env_string("DIBELLA_BENCH_CACHE_DIR", ".dibella_bench_cache");
  std::error_code ec;
  fs::create_directories(dir, ec);
  char params[96];
  std::snprintf(params, sizeof(params), "-s%.3g-r%d-n%d", bench_scale(),
                bench_ranks_per_node(), bench_max_nodes());
  return dir + "/" + key + params + ".bin";
}

bool cache_enabled() { return util::env_i64("DIBELLA_BENCH_CACHE", 1) != 0; }

}  // namespace

double bench_scale() { return util::env_double("DIBELLA_BENCH_SCALE", 1.0); }

int bench_ranks_per_node() {
  return static_cast<int>(util::env_i64("DIBELLA_BENCH_RANKS_PER_NODE", 4));
}

int bench_max_nodes() {
  return static_cast<int>(util::env_i64("DIBELLA_BENCH_MAX_NODES", 32));
}

std::vector<int> bench_node_counts() {
  std::vector<int> nodes;
  for (int n = 1; n <= bench_max_nodes(); n *= 2) nodes.push_back(n);
  return nodes;
}

simgen::DatasetPreset bench_preset_30x() {
  simgen::DatasetPreset p;
  p.name = "E.coli 30x (bench analogue)";
  p.genome.length = static_cast<u64>(30'000 * bench_scale());
  p.genome.seed = 0xEC011;
  p.genome.repeat_families = 3;
  p.genome.repeat_copies = 4;
  p.genome.repeat_length = p.genome.length / 40;
  p.reads.coverage = 30.0;
  p.reads.mean_read_len = static_cast<double>(p.genome.length) / 8.0;
  p.reads.len_sigma = 0.35;
  p.reads.min_read_len = static_cast<u64>(p.reads.mean_read_len / 8.0);
  p.reads.error_rate = 0.15;
  p.reads.seed = 0x5EED30;
  p.min_true_overlap = static_cast<u64>(p.reads.mean_read_len / 4.0);
  return p;
}

simgen::DatasetPreset bench_preset_100x() {
  simgen::DatasetPreset p;
  p.name = "E.coli 100x (bench analogue)";
  p.genome.length = static_cast<u64>(10'000 * bench_scale());
  p.genome.seed = 0xEC011;  // same strain: same genome family
  p.genome.repeat_families = 3;
  p.genome.repeat_copies = 4;
  p.genome.repeat_length = p.genome.length / 40;
  p.reads.coverage = 100.0;
  p.reads.mean_read_len = static_cast<double>(p.genome.length) / 8.0;
  p.reads.len_sigma = 0.35;
  p.reads.min_read_len = static_cast<u64>(p.reads.mean_read_len / 8.0);
  p.reads.error_rate = 0.15;
  p.reads.seed = 0x5EED100;
  p.min_true_overlap = static_cast<u64>(p.reads.mean_read_len / 4.0);
  return p;
}

const std::vector<io::Read>& dataset(const simgen::DatasetPreset& preset) {
  static std::map<std::string, simgen::SimulatedReads> cache;
  auto it = cache.find(preset.name);
  if (it == cache.end()) {
    it = cache.emplace(preset.name, make_dataset(preset)).first;
  }
  return it->second.reads;
}

core::PipelineConfig config_for(const simgen::DatasetPreset& preset,
                                const overlap::SeedFilterConfig& seeds) {
  core::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = preset.reads.error_rate;
  cfg.assumed_coverage = preset.reads.coverage;
  cfg.seed_filter = seeds;
  // The paper's implementation is bulk-synchronous; the figure benches
  // reproduce it. bench_exchange_overlap quantifies the overlapped schedule.
  cfg.overlap_comm = false;
  return cfg;
}

const std::vector<ScalingRun>& run_scaling(const simgen::DatasetPreset& preset,
                                           const core::PipelineConfig& cfg,
                                           const std::string& cache_key) {
  static std::map<std::string, std::vector<ScalingRun>> cache;
  auto it = cache.find(cache_key);
  if (it != cache.end()) return it->second;

  // On-disk cache: the figure binaries sharing a workload replay one
  // measurement.
  std::string path = cache_path(cache_key);
  if (cache_enabled()) {
    std::vector<ScalingRun> loaded;
    if (load_runs(path, &loaded)) {
      std::fprintf(stderr, "  [bench] %s: loaded from %s\n", cache_key.c_str(),
                   path.c_str());
      return cache.emplace(cache_key, std::move(loaded)).first->second;
    }
  }

  const auto& reads = dataset(preset);
  std::vector<ScalingRun> runs;
  // Compute accounting is work-based (core/kernel_costs.hpp): every segment
  // is exact unit counts x per-unit costs cached once per process, so one
  // run per node count is the measurement.
  for (int nodes : bench_node_counts()) {
    ScalingRun run;
    run.nodes = nodes;
    run.ranks = nodes * bench_ranks_per_node();
    comm::World world(run.ranks);
    run.out = run_pipeline(world, reads, cfg);
    runs.push_back(std::move(run));
    std::fprintf(stderr, "  [bench] %s: %d node(s) done\n", cache_key.c_str(), nodes);
  }
  if (cache_enabled()) save_runs(path, runs);
  return cache.emplace(cache_key, std::move(runs)).first->second;
}

double mrate(u64 count, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(count) / seconds / 1e6;
}

double efficiency(double t1, double tn, int nodes) {
  if (tn <= 0.0 || nodes <= 0) return 0.0;
  return t1 / (static_cast<double>(nodes) * tn);
}

void print_header(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", figure.c_str(), description.c_str());
  std::printf("workload scale=%.3g, %d ranks/node (simulated), nodes up to %d\n",
              bench_scale(), bench_ranks_per_node(), bench_max_nodes());
  std::printf("==============================================================\n");
}

}  // namespace dibella::benchx
