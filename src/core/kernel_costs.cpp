#include "core/kernel_costs.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <future>
#include <limits>
#include <new>
#include <optional>
#include <vector>

#include "align/xdrop.hpp"
#include "bloom/bloom_filter.hpp"
#include "dht/local_table.hpp"
#include "kmer/parser.hpp"
#include "overlap/overlapper.hpp"
#include "util/chunk_pool.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace dibella::core {

namespace {

constexpr int kReps = 3;

// Fixed work per rep, each sized to a few milliseconds on a current x86 core.
constexpr std::size_t kParseBases = 400'000;
constexpr int kParsePasses = 3;
constexpr u64 kBloomKeys = u64{1} << 17;     // fills the filter to its design size
constexpr std::size_t kTableBases = 32'768;  // ~32k keys per insert rep
// Occurrences per key of the traversal table: the mean per retained key in
// the overlap stage is 2.5 on the bench/pipeline CLR workloads (seeds 1-3)
// and 2.7 on bench_exchange_overlap's, rounded to the nearest integer. The
// 2%-error hifi-dense workload averages 8.5-9.2, so its traversal is priced
// low.
constexpr u32 kTraverseOccurrences = 3;
constexpr int kTraversePasses = 2;
constexpr std::size_t kConsolidateTasks = 20'000;
constexpr int kConsolidateBatches = 2;
// Tasks per payload of the pair-run calibration: two payloads keep its reps
// near a millisecond, so it adds little to the calibration's wall time.
constexpr std::size_t kPairRunTasks = 2'500;
constexpr int kPairRunPayloads = 2;
constexpr int kXdropCalls = 8;
constexpr int kProbes = 100'000;
constexpr int kCopies = 64;
// A freed block this large leaves glibc keeping up to twice as much freed
// heap mapped (see warm_heap). A table_insert rep frees more than 4 MiB at a
// time: after a 2 MiB block its heap is still trimmed.
constexpr std::size_t kWarmHeapBytes = std::size_t{4} << 20;

std::string random_dna(u64 seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

std::string noisy_copy(const std::string& s, double rate, u64 seed) {
  util::Xoshiro256 rng(seed);
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (rng.bernoulli(rate)) {
      double roll = rng.uniform();
      if (roll < 0.4) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
      } else if (roll < 0.7) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Put the calling thread's reps on the kind of heap the pipeline's kernels
/// run on. By the time they run, the pipeline has freed buffers of several
/// megabytes, and glibc has raised its mmap threshold to the largest freed
/// mmapped block (and trims the heap only when more than twice that is
/// free), so their growing arrays come from heap pages that stay mapped. A
/// job on a fresh thread starts from glibc's defaults instead: each rep
/// would mmap its larger arrays and trim the rest, page-faulting them in
/// again, which reads table_insert at 1.5-2x and pair_runs at ~1.2x their
/// per-unit cost. Freeing one large block first puts every job on the
/// pipeline's kind of heap, whatever ran before it. An untimed warm-up rep
/// does not: a table rep's arrays are too small to raise the threshold
/// above the heap the rep frees.
void warm_heap() {
  char* volatile block = static_cast<char*>(::operator new(kWarmHeapBytes));
  ::operator delete(block);
}

/// Time `run() -> units` kReps times, each after an untimed `prepare()` that
/// rebuilds whatever state the rep mutates, and return the fastest rep's
/// seconds per unit. The work is fixed and every rep starts from the same
/// state, so no cost depends on elapsed time; taking the fastest rep keeps a
/// preemption on a shared host from inflating it. Reps are timed on the
/// calling thread's CPU clock, so a job shares no clock with the jobs beside
/// it: a host that runs fewer threads at once than the pool started slows
/// each job's wall time, not the CPU time its thread runs for.
template <class Prepare, class Run>
double fastest_rep(Prepare&& prepare, Run&& run) {
  warm_heap();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    prepare();
    util::ThreadCpuTimer timer;
    const u64 units = run();
    best = std::min(best, timer.seconds() / static_cast<double>(units));
  }
  return best;
}

template <class Run>
double fastest_rep(Run&& run) {
  return fastest_rep([] {}, run);
}

/// The canonical 17-mers of a random sequence of `bases` bases.
std::vector<kmer::Kmer> table_keys(std::size_t bases) {
  std::vector<kmer::Kmer> keys;
  kmer::for_each_canonical_kmer(random_dna(4, bases), 17,
                                [&](const kmer::Occurrence& occ) { keys.push_back(occ.kmer); });
  return keys;
}

/// A table holding every key of `keys` with `occurrences` occurrences each.
void fill_table(dht::LocalKmerTable& table, const std::vector<kmer::Kmer>& keys,
                u32 occurrences) {
  u32 n = 0;
  for (const auto& km : keys) {
    table.insert_key(km);
    for (u32 i = 0; i < occurrences; ++i) {
      table.add_occurrence(km, dht::ReadOccurrence{i, n, 1});
    }
    ++n;
  }
}

// One job per cost. Each builds its own inputs and state, so the jobs share
// nothing and may run on any thread in any order.

/// Rolling canonical parse + per-owner buffer push (the stage-1/2 packing
/// inner loop).
double time_parse() {
  volatile u64 sink = 0;  // defeat dead-code elimination
  const std::string seq = random_dna(1, kParseBases);
  std::vector<kmer::Kmer> buffer;
  buffer.reserve(seq.size());
  return fastest_rep([&] {
    u64 n = 0;
    for (int pass = 0; pass < kParsePasses; ++pass) {
      buffer.clear();
      kmer::for_each_canonical_kmer(seq, 17, [&](const kmer::Occurrence& occ) {
        buffer.push_back(occ.kmer);
      });
      sink = sink + buffer.size();
      n += buffer.size();
    }
    return n;
  });
}

/// Bloom filter insert, into a fresh filter filled to its design size.
double time_bloom_insert() {
  volatile u64 sink = 0;
  std::optional<bloom::BloomFilter> filter;
  const auto fresh_filter = [&] { filter.emplace(kBloomKeys, 0.05); };
  return fastest_rep(fresh_filter, [&] {
    util::Xoshiro256 rng(2);
    for (u64 i = 0; i < kBloomKeys; ++i) {
      sink = sink + (filter->test_and_insert(rng.next(), rng.next()) ? 1 : 0);
    }
    return kBloomKeys;
  });
}

/// Hash table insert + occurrence append into a fresh table that grows from
/// the default capacity, as the pipeline's tables do.
double time_table_insert() {
  const std::vector<kmer::Kmer> keys = table_keys(kTableBases);
  std::optional<dht::LocalKmerTable> table;
  const auto fresh_table = [&] { table.emplace(); };
  return fastest_rep(fresh_table, [&] {
    fill_table(*table, keys, 1);
    return static_cast<u64>(keys.size());
  });
}

/// The overlap stage's per-key scan over a table whose occurrence lists have
/// a fixed length.
double time_table_traverse() {
  volatile u64 sink = 0;
  const std::vector<kmer::Kmer> keys = table_keys(kTableBases);
  dht::LocalKmerTable table(keys.size());
  fill_table(table, keys, kTraverseOccurrences);
  return fastest_rep([&] {
    u64 n = 0;
    for (int pass = 0; pass < kTraversePasses; ++pass) {
      table.for_each([&](const kmer::Kmer&, u32 count,
                         const std::vector<dht::ReadOccurrence>& occs) {
        sink = sink + count + occs.size();
        ++n;
      });
    }
    return n;
  });
}

/// Pair consolidation: sort-then-group over a flat task vector, the
/// per-record cost of the stage-4 task packing and the stage-5 kernels.
double time_pair_consolidate() {
  volatile u64 sink = 0;
  std::vector<std::pair<u64, u64>> tasks(kConsolidateTasks);
  return fastest_rep([&] {
    util::Xoshiro256 rng(5);
    u64 groups = 0;
    for (int batch = 0; batch < kConsolidateBatches; ++batch) {
      for (auto& t : tasks) {
        t = {rng.uniform_below(2'000), rng.uniform_below(2'000)};
      }
      std::sort(tasks.begin(), tasks.end());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (i == 0 || tasks[i] != tasks[i - 1]) ++groups;
      }
    }
    sink = sink + groups;
    return static_cast<u64>(kConsolidateBatches) * tasks.size();
  });
}

/// Stage-3 consolidation through pair runs: each payload is staged as the
/// stage stages it (16-byte overlap::OverlapTask), encoded
/// (overlap::encode_pair_runs) and validated, then the payloads are merged
/// by pair, decoded and filtered (overlap::PairSeedTable). Pairs over 2,000
/// reads, so most carry one seed.
double time_pair_runs() {
  volatile u64 sink = 0;
  constexpr u64 kReads = 2'000;
  std::vector<overlap::OverlapTask> tasks(kPairRunTasks * kPairRunPayloads);
  util::Xoshiro256 rng(5);
  for (auto& t : tasks) {
    u64 rid_a = rng.uniform_below(kReads);
    u64 rid_b = rng.uniform_below(kReads);
    if (rid_a == rid_b) rid_b = (rid_a + 1) % kReads;
    if (rid_a > rid_b) std::swap(rid_a, rid_b);
    t.key = overlap::PairKeys::key(rid_a, rid_b, 1);
    t.pos_a = static_cast<u32>(rng.uniform_below(20'000));
    t.pos_b = static_cast<u32>(rng.uniform_below(20'000));
  }
  // Each payload's tasks are staged by copy, as the stage stages them.
  std::vector<overlap::OverlapTask> staged;
  std::vector<u8> bytes;
  util::RadixScratch<overlap::OverlapTask> scratch;
  return fastest_rep([&] {
    overlap::PairSeedTable table;
    for (int payload = 0; payload < kPairRunPayloads; ++payload) {
      const auto first = tasks.begin() + static_cast<std::ptrdiff_t>(payload) *
                                             static_cast<std::ptrdiff_t>(kPairRunTasks);
      staged.assign(first, first + static_cast<std::ptrdiff_t>(kPairRunTasks));
      bytes.clear();
      overlap::encode_pair_runs(staged, bytes, scratch);
      table.add_runs(bytes.data(), bytes.size());
    }
    sink = sink + table.consolidate(overlap::SeedFilterConfig::one_seed()).size();
    return static_cast<u64>(tasks.size());
  });
}

/// x-drop DP cell, through the kernel this process dispatches to. One
/// workspace serves every call, as in the alignment stage, so the reps time
/// DP cells rather than band allocation.
double time_xdrop() {
  volatile u64 sink = 0;
  const std::string a = random_dna(6, 4'000);
  const std::string b = noisy_copy(a, 0.15, 7);
  align::Scoring sc;
  align::Workspace ws;
  return fastest_rep([&] {
    u64 cells = 0;
    for (int i = 0; i < kXdropCalls; ++i) {
      auto r = align::xdrop_extend(a, b, sc, 25, ws);
      sink = sink + static_cast<u64>(r.score);
      cells += r.cells;
    }
    return cells;
  });
}

/// Stage-5 triangle probe: a binary search into a sorted adjacency list (the
/// transitive reduction's witness lookup).
double time_graph_probe() {
  volatile u64 sink = 0;
  util::Xoshiro256 nbr_rng(8);
  std::vector<u64> nbrs(64);
  for (auto& v : nbrs) v = nbr_rng.next();
  std::sort(nbrs.begin(), nbrs.end());
  return fastest_rep([&] {
    util::Xoshiro256 rng(9);
    for (int i = 0; i < kProbes; ++i) {
      auto it = std::lower_bound(nbrs.begin(), nbrs.end(), rng.next());
      sink = sink + (it != nbrs.end() ? *it : 0);
    }
    return static_cast<u64>(kProbes);
  });
}

/// Bulk byte copy (message marshalling / read serialization).
double time_copy() {
  volatile u64 sink = 0;
  std::vector<char> src(1u << 20, 'x');
  std::vector<char> dst(1u << 20);
  return fastest_rep([&] {
    for (int i = 0; i < kCopies; ++i) {
      std::memcpy(dst.data(), src.data(), src.size());
      sink = sink + static_cast<u64>(dst[4096]);
    }
    return static_cast<u64>(kCopies) * src.size();
  });
}

struct Job {
  netsim::Kernel kernel;
  double (*time)();
};

// Longest first, so the pool's last claims are the short jobs. Wall
// milliseconds per job, setup included, run alone on a 4-vCPU Xeon (KVM):
// 19-22, 17-19, 16-17, 16-17, 13-14, 12-13, 10-12, 3-4, 2.
constexpr std::array<Job, netsim::kKernelCount> kJobs{{
    {netsim::Kernel::kParse, time_parse},
    {netsim::Kernel::kBloomInsert, time_bloom_insert},
    {netsim::Kernel::kTableTraverse, time_table_traverse},
    {netsim::Kernel::kPairConsolidate, time_pair_consolidate},
    {netsim::Kernel::kTableInsert, time_table_insert},
    {netsim::Kernel::kGraphProbe, time_graph_probe},
    {netsim::Kernel::kByteCopy, time_copy},
    {netsim::Kernel::kPairRuns, time_pair_runs},
    {netsim::Kernel::kXdropCell, time_xdrop},
}};

struct NoState {};

}  // namespace

netsim::KernelCosts measure_kernel_costs(std::size_t workers) {
  // Run the pool from a fresh thread, so that no job, not even the ones the
  // pool's calling thread claims, allocates from glibc's main arena (a job
  // on the main thread read pair_runs a few percent low). No rank does
  // either: World::run starts one thread per rank.
  return std::async(std::launch::async, [workers] {
           netsim::KernelCosts costs{};
           util::ChunkPool<NoState> pool(std::min(workers, kJobs.size()));
           pool.run(kJobs.size(), [&](NoState&, std::size_t j) {
             costs[kJobs[j].kernel] = kJobs[j].time();
           });
           return costs;
         })
      .get();
}

}  // namespace dibella::core
