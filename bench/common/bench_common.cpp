#include "common/bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

#include "comm/exchanger.hpp"
#include "comm/world.hpp"
#include "core/kernel_costs.hpp"
#include "util/cpus.hpp"
#include "util/env.hpp"

namespace dibella::benchx {

namespace {

// ---- on-disk cache of ScalingRun vectors --------------------------------
// A simple versioned little-endian binary format; bump kCacheVersion when
// any serialized structure changes.
constexpr u64 kCacheVersion = 7;

void put_u64(std::ostream& os, u64 v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_str(std::ostream& os, const std::string& s) {
  put_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}
void put_record(std::ostream& os, const comm::ExchangeRecord& rec) {
  put_u64(os, rec.seq);
  put_str(os, rec.stage);
  put_f64(os, rec.wall_seconds);
  put_f64(os, rec.hidden_wall_seconds);
  put_u64(os, rec.retries);
  put_u64(os, rec.bytes_to_peer.size());
  for (u64 b : rec.bytes_to_peer) put_u64(os, b);
}

/// Every run of a file shares the costs stored in its header.
void save_runs(const std::string& path, const std::vector<ScalingRun>& runs) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good() || runs.empty()) return;  // cache is best-effort
  put_u64(os, kCacheVersion);
  for (double cost : runs.front().costs) put_f64(os, cost);
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
      // Each event is its kind, then that kind's fields.
      for (const auto& ev : trace.events()) {
        put_u64(os, static_cast<u64>(ev.kind));
        switch (ev.kind) {
          case netsim::TraceEvent::Kind::kCompute:
            put_str(os, ev.stage);
            for (u64 n : ev.units) put_u64(os, n);
            put_u64(os, ev.working_set_bytes);
            break;
          case netsim::TraceEvent::Kind::kExchange:
            put_record(os, ev.exchange);
            break;
          case netsim::TraceEvent::Kind::kExchangeStart:
            break;
        }
      }
    }
  }
}

/// A count of items that take at least `min_item_bytes` each, checked
/// against the bytes left before anything is sized from it.
std::size_t get_count(comm::ByteReader& in, u64 min_item_bytes) {
  const u64 n = in.read<u64>();
  DIBELLA_CHECK(n <= in.remaining() / min_item_bytes, "bench cache: count past the end");
  return static_cast<std::size_t>(n);
}

/// A per-rank vector's length, which must equal the run's rank count.
std::size_t get_rank_count(comm::ByteReader& in, int ranks) {
  DIBELLA_CHECK(in.read<u64>() == static_cast<u64>(ranks), "bench cache: rank count");
  return static_cast<std::size_t>(ranks);
}

std::string get_str(comm::ByteReader& in) {
  const u64 n = in.read<u64>();
  return std::string(reinterpret_cast<const char*>(in.take(n)), n);
}

comm::ExchangeRecord get_record(comm::ByteReader& in, int ranks) {
  comm::ExchangeRecord rec;
  rec.seq = in.read<u64>();
  rec.stage = get_str(in);
  rec.wall_seconds = in.read<double>();
  rec.hidden_wall_seconds = in.read<double>();
  rec.retries = in.read<u64>();
  rec.bytes_to_peer.resize(get_rank_count(in, ranks));
  for (auto& b : rec.bytes_to_peer) b = in.read<u64>();
  return rec;
}

/// Smallest serialized run (nodes, ranks, 14 counters, two per-rank counts)
/// and trace event (an exchange start: its kind alone): the per-item floors
/// get_count checks counts against.
constexpr u64 kMinRunBytes = 18 * sizeof(u64);
constexpr u64 kMinEventBytes = sizeof(u64);

/// The invariants run_scaling's runs hold and the cost model checks: the
/// run's rank count is its node count times the ranks per node, and every
/// rank's trace holds the same number of exchanges.
bool consistent(const ScalingRun& run) {
  if (i64{run.nodes} * bench_ranks_per_node() != run.ranks) return false;
  const std::size_t calls = run.out.traces.front().exchange_count();
  for (const auto& trace : run.out.traces) {
    if (trace.exchange_count() != calls) return false;
  }
  return true;
}

/// Parse a whole cache file; any failed check throws Error.
std::vector<ScalingRun> read_runs(comm::ByteReader& in) {
  DIBELLA_CHECK(in.read<u64>() == kCacheVersion, "bench cache: version");
  netsim::KernelCosts costs{};
  for (double& cost : costs) {
    cost = in.read<double>();
    DIBELLA_CHECK(std::isfinite(cost) && cost > 0.0, "bench cache: kernel cost");
  }
  std::vector<ScalingRun> runs(get_count(in, kMinRunBytes));
  for (auto& run : runs) {
    run.costs = costs;
    run.nodes = static_cast<int>(in.read<u64>());
    // Every rank has at least its per_rank_pairs_aligned entry below.
    run.ranks = static_cast<int>(get_count(in, sizeof(u64)));
    DIBELLA_CHECK(run.ranks >= 1, "bench cache: no ranks");
    auto& c = run.out.counters;
    for (u64* v : {&c.kmers_parsed, &c.candidate_keys, &c.retained_kmers, &c.purged_keys,
                   &c.overlap_tasks, &c.read_pairs, &c.seeds_after_filter,
                   &c.reads_exchanged, &c.read_bytes_exchanged, &c.pairs_aligned,
                   &c.alignments_computed, &c.dp_cells, &c.alignments_reported}) {
      *v = in.read<u64>();
    }
    c.max_kmer_count = static_cast<u32>(in.read<u64>());
    run.out.per_rank_pairs_aligned.resize(get_rank_count(in, run.ranks));
    for (auto& v : run.out.per_rank_pairs_aligned) v = in.read<u64>();
    run.out.traces.resize(get_rank_count(in, run.ranks));
    for (auto& trace : run.out.traces) {
      const std::size_t events = get_count(in, kMinEventBytes);
      for (std::size_t e = 0; e < events; ++e) {
        const u64 kind = in.read<u64>();
        DIBELLA_CHECK(kind <= static_cast<u64>(netsim::TraceEvent::Kind::kExchangeStart),
                      "bench cache: unknown trace event kind");
        switch (static_cast<netsim::TraceEvent::Kind>(kind)) {
          case netsim::TraceEvent::Kind::kCompute: {
            std::string stage = get_str(in);
            netsim::KernelUnits units{};
            for (u64& n : units) n = in.read<u64>();
            trace.add_compute(std::move(stage), units, in.read<u64>());
            break;
          }
          case netsim::TraceEvent::Kind::kExchange:
            trace.add_exchange(get_record(in, run.ranks));
            break;
          case netsim::TraceEvent::Kind::kExchangeStart:
            trace.add_exchange_start();
            break;
        }
      }
    }
    DIBELLA_CHECK(consistent(run), "bench cache: inconsistent run");
  }
  DIBELLA_CHECK(in.empty(), "bench cache: trailing bytes");
  return runs;
}

/// Load a cache file; a missing, stale or corrupt one is a miss.
bool load_runs(const std::string& path, std::vector<ScalingRun>* runs) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  const std::vector<u8> bytes{std::istreambuf_iterator<char>(is),
                              std::istreambuf_iterator<char>()};
  comm::ByteReader in(bytes);
  try {
    *runs = read_runs(in);
  } catch (const Error&) {
    return false;
  }
  return true;
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

const netsim::KernelCosts& bench_costs() {
  static const netsim::KernelCosts costs =
      core::measure_kernel_costs(static_cast<std::size_t>(util::available_cpus()));
  return costs;
}

netsim::TimingReport ScalingRun::evaluate(const netsim::Platform& platform) const {
  return out.evaluate(platform, netsim::Topology{nodes, bench_ranks_per_node()}, costs);
}

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
  // holds exact unit counts, priced at this process's costs, so one run per
  // node count is the measurement.
  for (int nodes : bench_node_counts()) {
    ScalingRun run;
    run.nodes = nodes;
    run.ranks = nodes * bench_ranks_per_node();
    run.costs = bench_costs();
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
