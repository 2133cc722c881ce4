#include "core/kernel_costs.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "align/xdrop.hpp"
#include "bloom/bloom_filter.hpp"
#include "dht/local_table.hpp"
#include "kmer/parser.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace dibella::core {

namespace {

constexpr double kMinCalibrationSeconds = 0.1;

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

/// Repeat `body(round) -> units` until at least kMinCalibrationSeconds of
/// wall time accumulate; return seconds per unit.
template <class Fn>
double calibrate(Fn&& body) {
  util::WallTimer timer;
  u64 units = 0;
  u64 round = 0;
  do {
    units += body(round++);
  } while (timer.seconds() < kMinCalibrationSeconds);
  double t = timer.seconds();
  return units > 0 ? t / static_cast<double>(units) : 0.0;
}

KernelCosts measure() {
  KernelCosts costs;
  volatile u64 sink = 0;  // defeat dead-code elimination

  // Rolling canonical parse + per-owner buffer push (the stage-1/2 packing
  // inner loop).
  {
    std::string seq = random_dna(1, 200'000);
    std::vector<kmer::Kmer> buffer;
    buffer.reserve(seq.size());
    costs.parse_per_kmer = calibrate([&](u64) {
      buffer.clear();
      u64 n = 0;
      kmer::for_each_canonical_kmer(seq, 17, [&](const kmer::Occurrence& occ) {
        buffer.push_back(occ.kmer);
        ++n;
      });
      sink = sink + buffer.size();
      return n;
    });
  }

  // Bloom filter insert.
  {
    bloom::BloomFilter filter(1u << 20, 0.05);
    util::Xoshiro256 rng(2);
    costs.bloom_insert = calibrate([&](u64) {
      for (int i = 0; i < 10'000; ++i) {
        sink = sink + (filter.test_and_insert(rng.next(), rng.next()) ? 1 : 0);
      }
      return u64{10'000};
    });
  }

  // Hash table insert + occurrence append.
  {
    dht::LocalKmerTable table(1u << 16);
    util::Xoshiro256 rng(3);
    std::string seq = random_dna(4, 65'536);
    std::vector<kmer::Kmer> keys;
    kmer::for_each_canonical_kmer(
        seq, 17, [&](const kmer::Occurrence& occ) { keys.push_back(occ.kmer); });
    costs.table_insert = calibrate([&](u64 round) {
      u64 n = 0;
      for (const auto& km : keys) {
        table.insert_key(km);
        table.add_occurrence(km, dht::ReadOccurrence{round, static_cast<u32>(n), 1});
        ++n;
      }
      return n;
    });

    // Traversal (the overlap stage's per-key scan).
    costs.table_traverse = calibrate([&](u64) {
      u64 n = 0;
      table.for_each([&](const kmer::Kmer&, u32 count,
                         const std::vector<dht::ReadOccurrence>& occs) {
        sink = sink + count + occs.size();
        ++n;
      });
      return n;
    });
  }

  // Pair consolidation: sort-then-group over a flat task vector — mirrors
  // overlap::consolidate_tasks (the map-based consolidation it replaced was
  // ~10x more expensive per task; see BENCH_kernels.json).
  {
    util::Xoshiro256 rng(5);
    std::vector<std::pair<u64, u64>> tasks(20'000);
    costs.pair_consolidate = calibrate([&](u64) {
      for (auto& t : tasks) {
        t = {rng.uniform_below(2'000), rng.uniform_below(2'000)};
      }
      std::sort(tasks.begin(), tasks.end());
      u64 groups = 0;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (i == 0 || tasks[i] != tasks[i - 1]) ++groups;
      }
      sink = sink + groups;
      return static_cast<u64>(tasks.size());
    });
  }

  // x-drop DP cell, through the kernel this process dispatches to. One
  // workspace serves every call, as in the alignment stage, so the loop
  // times DP cells rather than band allocation.
  {
    std::string a = random_dna(6, 4'000);
    std::string b = noisy_copy(a, 0.15, 7);
    align::Scoring sc;
    align::Workspace ws;
    costs.xdrop_per_cell = calibrate([&](u64) {
      auto r = align::xdrop_extend(a, b, sc, 25, ws);
      sink = sink + static_cast<u64>(r.score);
      return r.cells;
    });
  }

  // Stage-5 triangle probe: a binary search into a sorted adjacency list
  // (the transitive reduction's witness lookup).
  {
    util::Xoshiro256 rng(8);
    std::vector<u64> nbrs(64);
    for (auto& v : nbrs) v = rng.next();
    std::sort(nbrs.begin(), nbrs.end());
    costs.graph_probe = calibrate([&](u64) {
      for (int i = 0; i < 10'000; ++i) {
        auto it = std::lower_bound(nbrs.begin(), nbrs.end(), rng.next());
        sink = sink + (it != nbrs.end() ? *it : 0);
      }
      return u64{10'000};
    });
  }

  // Bulk byte copy (message marshalling / read serialization).
  {
    std::vector<char> src(1u << 20, 'x');
    std::vector<char> dst(1u << 20);
    costs.per_byte_copy = calibrate([&](u64) {
      std::memcpy(dst.data(), src.data(), src.size());
      sink = sink + static_cast<u64>(dst[4096]);
      return static_cast<u64>(src.size());
    });
  }

  (void)sink;
  return costs;
}

}  // namespace

const KernelCosts& KernelCosts::get() {
  static const KernelCosts costs = measure();
  return costs;
}

}  // namespace dibella::core
