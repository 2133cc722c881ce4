/// \file bench_micro_kernels.cpp
/// google-benchmark microbenchmarks of the per-kernel building blocks:
/// k-mer parsing, the Bloom filter, the local hash table, x-drop extension,
/// the reference Smith-Waterman kernels (align::ref, the x-drop oracle), and
/// the in-process alltoallv transport.
/// These quantify the constants behind the stage-level figures.

#include <benchmark/benchmark.h>

#include "align/reference_kernels.hpp"
#include "align/xdrop.hpp"
#include "bloom/bloom_filter.hpp"
#include "comm/communicator.hpp"
#include "comm/exchanger.hpp"
#include "comm/world.hpp"
#include "dht/local_table.hpp"
#include "kmer/parser.hpp"
#include "simgen/genome.hpp"
#include "util/random.hpp"

namespace {

using namespace dibella;

std::string random_dna(u64 seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

std::string noisy_copy(const std::string& s, double rate, u64 seed) {
  util::Xoshiro256 rng(seed);
  std::string out;
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

void BM_KmerParse(benchmark::State& state) {
  std::string seq = random_dna(1, 100'000);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    u64 acc = 0;
    kmer::for_each_canonical_kmer(seq, k,
                                  [&](const kmer::Occurrence& occ) { acc ^= occ.kmer.hash(); });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(seq.size() - static_cast<std::size_t>(k) + 1));
}
BENCHMARK(BM_KmerParse)->Arg(17)->Arg(31);

void BM_BloomInsert(benchmark::State& state) {
  bloom::BloomFilter filter(1u << 20, 0.05);
  util::Xoshiro256 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.test_and_insert(rng.next(), rng.next()));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_BloomInsert);

void BM_LocalTableInsert(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  std::string seq = random_dna(4, 1u << 16);
  std::vector<kmer::Kmer> keys;
  kmer::for_each_canonical_kmer(seq, 17,
                                [&](const kmer::Occurrence& occ) { keys.push_back(occ.kmer); });
  for (auto _ : state) {
    state.PauseTiming();
    dht::LocalKmerTable table(keys.size());
    state.ResumeTiming();
    for (const auto& km : keys) {
      table.insert_key(km);
      table.add_occurrence(km, {1, 2, 1});
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(keys.size()));
}
BENCHMARK(BM_LocalTableInsert);

void BM_XDropHomologous(benchmark::State& state) {
  std::string a = random_dna(5, static_cast<std::size_t>(state.range(0)));
  std::string b = noisy_copy(a, 0.15, 6);
  align::Scoring sc;
  u64 cells = 0;
  for (auto _ : state) {
    auto r = align::xdrop_extend(a, b, sc, 25);
    cells += r.cells;
    benchmark::DoNotOptimize(r.score);
  }
  state.counters["cells/s"] = benchmark::Counter(static_cast<double>(cells),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_XDropHomologous)->Arg(1000)->Arg(4000);

void BM_XDropDivergent(benchmark::State& state) {
  std::string a = random_dna(7, 4000);
  std::string b = random_dna(8, 4000);
  align::Scoring sc;
  for (auto _ : state) {
    auto r = align::xdrop_extend(a, b, sc, 25);
    benchmark::DoNotOptimize(r.score);
  }
}
BENCHMARK(BM_XDropDivergent);

void BM_SmithWaterman(benchmark::State& state) {
  std::string a = random_dna(9, static_cast<std::size_t>(state.range(0)));
  std::string b = noisy_copy(a, 0.15, 10);
  align::Scoring sc;
  for (auto _ : state) {
    auto r = align::ref::smith_waterman(a, b, sc);
    benchmark::DoNotOptimize(r.score);
  }
}
BENCHMARK(BM_SmithWaterman)->Arg(500);

void BM_BandedSmithWaterman(benchmark::State& state) {
  std::string a = random_dna(11, 4000);
  std::string b = noisy_copy(a, 0.15, 12);
  align::Scoring sc;
  for (auto _ : state) {
    auto r = align::ref::banded_smith_waterman(a, b, sc, 64);
    benchmark::DoNotOptimize(r.score);
  }
}
BENCHMARK(BM_BandedSmithWaterman);

void BM_Alltoallv(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const std::size_t per_peer = 1u << 12;
  comm::World world(P);
  for (auto _ : state) {
    world.run([&](comm::Communicator& comm) {
      const std::vector<u64> send(per_peer / 8, static_cast<u64>(comm.rank()));
      comm::Exchanger ex(comm);
      for (int d = 0; d < P; ++d) ex.post(d, send);
      ex.flush_async(/*done=*/true);
      auto recv = ex.wait();
      benchmark::DoNotOptimize(recv.total_bytes());
    });
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * P * P *
                          static_cast<i64>(per_peer));
}
BENCHMARK(BM_Alltoallv)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
