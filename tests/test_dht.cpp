// Tests for the dht module: the local k-mer table and the full distributed
// stage-1 + stage-2 construction, cross-checked against the serial counting
// oracle. The headline property: the distributed retained k-mer set is
// EXACTLY the serial {k-mer : min <= count <= max} set, for any rank count.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bloom/distributed_bloom.hpp"
#include "comm/world.hpp"
#include "dht/distributed_table.hpp"
#include "dht/local_table.hpp"
#include "io/read_store.hpp"
#include "kmer/occurrence_stream.hpp"
#include "kmer/parser.hpp"
#include "kmer/spectrum.hpp"
#include "obs/span.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

namespace dd = dibella::dht;
namespace dk = dibella::kmer;
using dibella::u32;
using dibella::u64;

namespace {

dk::Kmer make_kmer(dibella::util::Xoshiro256& rng, int k) {
  std::string s(static_cast<std::size_t>(k), 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return dk::Kmer::from_string(s, k);
}

}  // namespace

TEST(LocalKmerTable, InsertContainsCount) {
  dd::LocalKmerTable table(16);
  dibella::util::Xoshiro256 rng(1);
  auto a = make_kmer(rng, 17);
  auto b = make_kmer(rng, 17);
  EXPECT_FALSE(table.contains(a));
  EXPECT_TRUE(table.insert_key(a));
  EXPECT_FALSE(table.insert_key(a));  // duplicate insert reports false
  EXPECT_TRUE(table.contains(a));
  EXPECT_FALSE(table.contains(b));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.count(a), 0u);  // keys start with zero occurrences
  EXPECT_EQ(table.count(b), 0u);
}

TEST(LocalKmerTable, OccurrencesOnlyForResidentKeys) {
  dd::LocalKmerTable table(16);
  dibella::util::Xoshiro256 rng(2);
  auto a = make_kmer(rng, 17);
  auto b = make_kmer(rng, 17);
  table.insert_key(a);
  EXPECT_TRUE(table.add_occurrence(a, {5, 100, 1}));
  EXPECT_TRUE(table.add_occurrence(a, {9, 7, 0}));
  EXPECT_FALSE(table.add_occurrence(b, {1, 1, 1}));  // not resident: rejected
  EXPECT_EQ(table.count(a), 2u);
  auto occs = table.occurrences(a);
  ASSERT_EQ(occs.size(), 2u);
  // Insertion order preserved.
  EXPECT_EQ(occs[0].rid, 5u);
  EXPECT_EQ(occs[0].pos, 100u);
  EXPECT_EQ(occs[0].is_forward, 1u);
  EXPECT_EQ(occs[1].rid, 9u);
  EXPECT_TRUE(table.occurrences(b).empty());
}

TEST(LocalKmerTable, OccurrenceCapBoundsStorageNotCount) {
  dd::LocalKmerTable table(16, /*occurrence_cap=*/3);
  dibella::util::Xoshiro256 rng(3);
  auto a = make_kmer(rng, 17);
  table.insert_key(a);
  for (u32 i = 0; i < 10; ++i) table.add_occurrence(a, {i, i, 1});
  EXPECT_EQ(table.count(a), 10u);          // counting continues past the cap
  EXPECT_EQ(table.occurrences(a).size(), 3u);  // storage bounded
}

TEST(LocalKmerTable, GrowthPreservesContents) {
  dd::LocalKmerTable table(4);  // deliberately undersized: forces rehashing
  dibella::util::Xoshiro256 rng(4);
  std::vector<dk::Kmer> keys;
  for (int i = 0; i < 5'000; ++i) {
    keys.push_back(make_kmer(rng, 17));
    table.insert_key(keys.back());
    table.add_occurrence(keys.back(), {static_cast<u64>(i), 0, 1});
  }
  EXPECT_LE(table.load_factor(), 0.61);
  EXPECT_GT(table.memory_bytes(), 0u);
  for (const auto& km : keys) {
    EXPECT_TRUE(table.contains(km));
    EXPECT_GE(table.count(km), 1u);
  }
}

TEST(LocalKmerTable, PurgeOutsideRange) {
  dd::LocalKmerTable table(64);
  dibella::util::Xoshiro256 rng(5);
  // Keys with counts 1..6.
  std::vector<dk::Kmer> keys;
  for (u32 c = 1; c <= 6; ++c) {
    auto km = make_kmer(rng, 17);
    keys.push_back(km);
    table.insert_key(km);
    for (u32 i = 0; i < c; ++i) table.add_occurrence(km, {i, i, 1});
  }
  std::size_t removed = table.purge_outside(2, 4);
  EXPECT_EQ(removed, 3u);  // counts 1, 5, 6 removed
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.contains(keys[0]));
  EXPECT_TRUE(table.contains(keys[1]));
  EXPECT_TRUE(table.contains(keys[3]));
  EXPECT_FALSE(table.contains(keys[4]));
  // Occurrence lists of survivors intact and ordered.
  auto occs = table.occurrences(keys[2]);  // count 3
  ASSERT_EQ(occs.size(), 3u);
  EXPECT_EQ(occs[0].pos, 0u);
  EXPECT_EQ(occs[2].pos, 2u);
  // Zero-count keys (stage-1 candidates never observed) also purge.
  dd::LocalKmerTable t2(16);
  auto km = make_kmer(rng, 17);
  t2.insert_key(km);
  EXPECT_EQ(t2.purge_outside(2, 100), 1u);
  EXPECT_EQ(t2.size(), 0u);
}

TEST(LocalKmerTable, ForEachVisitsEveryKey) {
  dd::LocalKmerTable table(64);
  dibella::util::Xoshiro256 rng(6);
  std::set<std::string> inserted;
  for (int i = 0; i < 300; ++i) {
    auto km = make_kmer(rng, 17);
    table.insert_key(km);
    inserted.insert(km.to_string(17));
  }
  std::set<std::string> visited;
  table.for_each([&](const dk::Kmer& km, u32, const std::vector<dd::ReadOccurrence>&) {
    visited.insert(km.to_string(17));
  });
  EXPECT_EQ(visited, inserted);
}

// --- distributed stage 1 + 2 ------------------------------------------------

namespace {

struct RetainedEntry {
  u32 count = 0;
  std::multiset<std::pair<u64, u32>> occs;  // (rid, pos)
};

using RetainedMap = std::map<std::string, RetainedEntry>;

/// Run stages 1+2 at P ranks and merge every rank's retained partition.
RetainedMap run_stages(int P, const std::vector<dibella::io::Read>& reads, int k,
                       u32 min_count, u32 max_count) {
  std::vector<u64> lens;
  for (auto& r : reads) lens.push_back(r.seq.size());
  dibella::io::ReadPartition part(lens, P);
  dibella::comm::World world(P);
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
  std::vector<RetainedMap> per_rank(static_cast<std::size_t>(P));
  world.run([&](dibella::comm::Communicator& comm) {
    dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
    ctx.attach();
    dibella::io::ReadStore store(reads, part, comm.rank());
    dd::LocalKmerTable table(1024, max_count + 1);
    dibella::bloom::BloomStageConfig bcfg;
    bcfg.k = k;
    bcfg.batch_kmers = 20'000;
    dibella::bloom::run_bloom_stage(ctx, store, bcfg, table);
    dd::HashTableStageConfig hcfg;
    hcfg.k = k;
    hcfg.batch_instances = 20'000;
    hcfg.min_count = min_count;
    hcfg.max_count = max_count;
    run_hashtable_stage(ctx, store, hcfg, table);
    auto& mine = per_rank[static_cast<std::size_t>(comm.rank())];
    table.for_each([&](const dk::Kmer& km, u32 count,
                       const std::vector<dd::ReadOccurrence>& occs) {
      RetainedEntry e;
      e.count = count;
      for (const auto& o : occs) e.occs.insert({o.rid, o.pos});
      mine[km.to_string(k)] = std::move(e);
    });
  });
  RetainedMap merged;
  for (auto& m : per_rank) {
    for (auto& [key, e] : m) {
      EXPECT_EQ(merged.count(key), 0u) << "key owned by two ranks: " << key;
      merged[key] = e;
    }
  }
  return merged;
}

/// Serial oracle: canonical k-mer -> (count, multiset of (rid, pos)).
RetainedMap serial_oracle(const std::vector<dibella::io::Read>& reads, int k,
                          u32 min_count, u32 max_count) {
  RetainedMap all;
  for (const auto& r : reads) {
    dk::for_each_canonical_kmer(r.seq, k, [&](const dk::Occurrence& occ) {
      auto& e = all[occ.kmer.to_string(k)];
      ++e.count;
      e.occs.insert({r.gid, occ.pos});
    });
  }
  RetainedMap kept;
  for (auto& [key, e] : all) {
    if (e.count >= min_count && e.count <= max_count) kept[key] = e;
  }
  return kept;
}

}  // namespace

TEST(DistributedHashTable, RetainedSetMatchesSerialOracleExactly) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  const int k = 17;
  const u32 min_c = 2, max_c = 8;
  auto oracle = serial_oracle(sim.reads, k, min_c, max_c);
  ASSERT_GT(oracle.size(), 200u);  // meaningful retained set

  auto distributed = run_stages(4, sim.reads, k, min_c, max_c);
  ASSERT_EQ(distributed.size(), oracle.size());
  for (auto& [key, e] : oracle) {
    auto it = distributed.find(key);
    ASSERT_NE(it, distributed.end()) << key;
    EXPECT_EQ(it->second.count, e.count) << key;
    EXPECT_EQ(it->second.occs, e.occs) << key;
  }
}

TEST(DistributedHashTable, ResultIndependentOfRankCount) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(13));
  const int k = 17;
  auto p1 = run_stages(1, sim.reads, k, 2, 8);
  auto p3 = run_stages(3, sim.reads, k, 2, 8);
  auto p8 = run_stages(8, sim.reads, k, 2, 8);
  EXPECT_EQ(p1.size(), p3.size());
  EXPECT_EQ(p1.size(), p8.size());
  for (auto& [key, e] : p1) {
    ASSERT_TRUE(p3.count(key)) << key;
    ASSERT_TRUE(p8.count(key)) << key;
    EXPECT_EQ(p3.at(key).count, e.count);
    EXPECT_EQ(p8.at(key).occs, e.occs);
  }
}

TEST(DistributedHashTable, HighFrequencyThresholdFiltersRepeats) {
  // A repeat-heavy genome: the retained set with a tight m excludes k-mers
  // that a loose m keeps.
  auto preset = dibella::simgen::tiny_test(21);
  preset.genome.repeat_families = 6;
  preset.genome.repeat_copies = 10;
  preset.genome.repeat_length = 600;
  auto sim = make_dataset(preset);
  const int k = 17;
  auto tight = run_stages(2, sim.reads, k, 2, 6);
  auto loose = run_stages(2, sim.reads, k, 2, 60);
  EXPECT_LT(tight.size(), loose.size());
  for (auto& [key, e] : tight) {
    EXPECT_LE(e.count, 6u);
    ASSERT_TRUE(loose.count(key));
  }
}

TEST(DistributedHashTable, ParsedEqualsReceivedGlobally) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(33));
  const int P = 4;
  const int k = 17;
  std::vector<u64> lens;
  for (auto& r : sim.reads) lens.push_back(r.seq.size());
  dibella::io::ReadPartition part(lens, P);
  dibella::comm::World world(P);
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
  std::vector<dd::HashTableStageResult> results(static_cast<std::size_t>(P));
  world.run([&](dibella::comm::Communicator& comm) {
    dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
    ctx.attach();
    dibella::io::ReadStore store(sim.reads, part, comm.rank());
    dd::LocalKmerTable table(1024, 9);
    dibella::bloom::BloomStageConfig bcfg;
    bcfg.k = k;
    dibella::bloom::run_bloom_stage(ctx, store, bcfg, table);
    dd::HashTableStageConfig hcfg;
    hcfg.k = k;
    results[static_cast<std::size_t>(comm.rank())] =
        run_hashtable_stage(ctx, store, hcfg, table);
  });
  u64 parsed = 0, received = 0, retained = 0, before = 0, purged = 0;
  for (auto& r : results) {
    parsed += r.parsed_instances;
    received += r.received_instances;
    retained += r.retained_keys;
    before += r.keys_before_purge;
    purged += r.purged_keys;
  }
  EXPECT_EQ(parsed, received);  // conservation across the exchange
  EXPECT_EQ(before, retained + purged);
  EXPECT_GT(retained, 0u);
  // §9: filtering typically removes the vast majority of candidate keys'
  // singleton fraction; retained is far below parsed instances.
  EXPECT_LT(retained, parsed / 10);
}

// --- stages 1-2 on a rank's worker pool --------------------------------------

namespace {

/// Everything stages 1+2 leave behind on one rank, in the order it was
/// built: the table in traversal order (which follows insertion order), the
/// stage results, and the RankTrace compute segments (one per kernel batch,
/// carrying its unit counts and working set).
struct StageDigest {
  std::vector<std::tuple<u64, u32, std::vector<std::tuple<u64, u32, dibella::u8>>>> table;
  std::vector<u64> results;
  std::vector<std::tuple<std::string, dibella::netsim::KernelUnits, u64>> compute;

  friend bool operator==(const StageDigest&, const StageDigest&) = default;
};

std::vector<StageDigest> run_stages_on_workers(int P, int workers, bool overlap,
                                               const dibella::sketch::SketchConfig& sk,
                                               const std::vector<dibella::io::Read>& reads,
                                               u64 batch, dibella::obs::Trace* spans = nullptr) {
  std::vector<u64> lens;
  for (auto& r : reads) lens.push_back(r.seq.size());
  dibella::io::ReadPartition part(lens, P);
  dibella::comm::World world(P);
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
  std::vector<StageDigest> digests(static_cast<std::size_t>(P));
  world.run([&](dibella::comm::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    dibella::core::StageContext ctx{comm, traces[rank], spans};
    ctx.attach();
    dibella::io::ReadStore store(reads, part, comm.rank());
    dd::LocalKmerTable table(1024, 9);
    dibella::bloom::BloomStageConfig bcfg;
    bcfg.sketch = sk;
    bcfg.batch_kmers = batch;
    bcfg.exchange.overlap = overlap;
    bcfg.workers = workers;
    const auto b = dibella::bloom::run_bloom_stage(ctx, store, bcfg, table);
    dd::HashTableStageConfig hcfg;
    hcfg.sketch = sk;
    hcfg.batch_instances = batch;
    hcfg.exchange.overlap = overlap;
    hcfg.workers = workers;
    const auto h = run_hashtable_stage(ctx, store, hcfg, table);
    StageDigest& d = digests[rank];
    d.results = {b.parsed_instances, b.windows_scanned, b.received_instances,
                 b.candidate_keys, b.bloom_set_bits, b.batches,
                 h.parsed_instances, h.received_instances, h.inserted_occurrences,
                 h.retained_keys, h.batches};
    table.for_each([&](const dk::Kmer& km, u32 count,
                       const std::vector<dd::ReadOccurrence>& occs) {
      auto& row = d.table.emplace_back(km.words()[0], count,
                                       std::vector<std::tuple<u64, u32, dibella::u8>>{});
      for (const auto& o : occs) std::get<2>(row).emplace_back(o.rid, o.pos, o.is_forward);
    });
    for (const auto& ev : traces[rank].events()) {
      if (ev.kind == dibella::netsim::TraceEvent::Kind::kCompute) {
        d.compute.emplace_back(ev.stage, ev.units, ev.working_set_bytes);
      }
    }
  });
  return digests;
}

}  // namespace

TEST(DistributedHashTable, StagesOneAndTwoIdenticalAcrossWorkerCounts) {
  // Workers sketch a look-ahead of reads and the rank thread posts them in
  // read order, pausing after the same read as one worker does: the batches,
  // the Bloom/table insertion order, the results and every kernel batch's
  // compute segment match the one-worker run, at a budget small enough for
  // many batches per stage.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(17));
  for (const dibella::sketch::SketchConfig sk :
       {dibella::sketch::SketchConfig{0, false}, dibella::sketch::SketchConfig{10, false}}) {
    for (int P : {1, 3}) {
      for (bool overlap : {true, false}) {
        const auto want = run_stages_on_workers(P, 1, overlap, sk, sim.reads, 997);
        ASSERT_FALSE(want[0].table.empty());
        ASSERT_GT(want[0].results[5], 2u);  // stage-1 batches
        for (int workers : {2, 4}) {
          EXPECT_TRUE(run_stages_on_workers(P, workers, overlap, sk, sim.reads, 997) == want)
              << "w=" << sk.w << " ranks=" << P << " overlap=" << overlap
              << " workers=" << workers;
        }
      }
    }
  }
}

TEST(DistributedHashTable, PackSpansReportTheThreadsThatSketched) {
  // A pack span's `workers` is the most threads any look-ahead round behind
  // its batch ran: the configured count when the round has that many
  // chunks, one when the rank's reads fit in one chunk.
  const auto pack_workers = [](const std::vector<dibella::io::Read>& reads, int workers) {
    dibella::obs::Trace spans(1);
    run_stages_on_workers(1, workers, true, dibella::sketch::SketchConfig{10, false}, reads,
                          u64{1} << 30, &spans);
    std::map<std::string, std::vector<u64>> args;
    for (const auto& ev : spans.lane(0).snapshot()) {
      if (ev.phase != dibella::obs::SpanEvent::Phase::kEnd) continue;
      for (int a = 0; a < ev.n_args; ++a) {
        if (std::string(ev.args[a].key) == "workers") args[ev.name].push_back(ev.args[a].value);
      }
    }
    return args;
  };
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(17));
  u64 windows = 0;
  for (const auto& r : sim.reads) windows += dk::window_count(r.seq.size(), 17);
  ASSERT_GE(windows, 4 * dk::OccurrenceStream<dk::Kmer>::kChunkWindows);
  const std::vector<dibella::io::Read> one_read(sim.reads.begin(), sim.reads.begin() + 1);
  auto all = pack_workers(sim.reads, 4);
  auto one = pack_workers(one_read, 4);
  for (const char* pack : {"bloom:pack", "ht:pack"}) {
    EXPECT_EQ(all[pack], std::vector<u64>{4}) << pack;
    EXPECT_EQ(one[pack], std::vector<u64>{1}) << pack;
  }
}
