// Tests for the overlap module: seed policies, the Algorithm-1 owner
// heuristic, the pair-run wire format (differential against the
// sort-then-group oracle, malformed and mutated payloads), and the
// distributed overlap stage cross-checked against a serial all-pairs oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "bloom/distributed_bloom.hpp"
#include "comm/world.hpp"
#include "dht/distributed_table.hpp"
#include "io/read_store.hpp"
#include "kmer/parser.hpp"
#include "overlap/overlapper.hpp"
#include "overlap/seed_filter.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

namespace dov = dibella::overlap;
using dibella::u32;
using dibella::u64;
using dibella::u8;

TEST(SeedFilter, OneSeedPicksMedianOfDominantOrientation) {
  std::vector<dov::SeedPair> seeds = {
      {100, 10, 1}, {500, 410, 1}, {900, 810, 1}, {50, 700, 0}};
  auto out = dov::filter_seeds(seeds, dov::SeedFilterConfig::one_seed());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pos_a, 500u);  // median of the 3 forward seeds
  EXPECT_EQ(out[0].same_orientation, 1u);
}

TEST(SeedFilter, OneSeedSingleOrientationGroup) {
  std::vector<dov::SeedPair> seeds = {{10, 5, 0}, {20, 15, 0}, {30, 25, 0}};
  auto out = dov::filter_seeds(seeds, dov::SeedFilterConfig::one_seed());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pos_a, 20u);
}

TEST(SeedFilter, MinDistanceEnforcesSpacing) {
  std::vector<dov::SeedPair> seeds;
  for (u32 p = 0; p < 5000; p += 100) seeds.push_back({p, p, 1});
  auto out = dov::filter_seeds(seeds, dov::SeedFilterConfig::spaced(1000));
  ASSERT_EQ(out.size(), 5u);  // 0, 1000, 2000, 3000, 4000
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].pos_a - out[i - 1].pos_a, 1000u);
  }
}

TEST(SeedFilter, AllSeedsKeepsKSpacedSeeds) {
  std::vector<dov::SeedPair> seeds;
  for (u32 p = 0; p < 170; p += 17) seeds.push_back({p, p + 3, 1});
  auto out = dov::filter_seeds(seeds, dov::SeedFilterConfig::all_seeds(17));
  EXPECT_EQ(out.size(), 10u);  // every seed survives: spacing is exactly k
}

TEST(SeedFilter, SpacingAppliesPerOrientationGroup) {
  std::vector<dov::SeedPair> seeds = {{0, 0, 1}, {5, 5, 1}, {0, 9, 0}, {5, 2, 0}};
  auto out = dov::filter_seeds(seeds, dov::SeedFilterConfig::spaced(100));
  // One survivor per orientation group.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].same_orientation, 1u);
  EXPECT_EQ(out[1].same_orientation, 0u);
}

TEST(SeedFilter, DeduplicatesAndCaps) {
  std::vector<dov::SeedPair> seeds = {{10, 10, 1}, {10, 10, 1}, {40, 40, 1}, {80, 80, 1}};
  dov::SeedFilterConfig cfg = dov::SeedFilterConfig::spaced(20);
  cfg.max_seeds = 2;
  auto out = dov::filter_seeds(seeds, cfg);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].pos_a, 10u);
  EXPECT_EQ(out[1].pos_a, 40u);
  EXPECT_TRUE(dov::filter_seeds({}, cfg).empty());
}

TEST(SeedFilter, SortOrderHoldsOnBothSidesOfTheRadixCutover) {
  // spaced(0) keeps every distinct seed, so the output is the sorted,
  // deduplicated input: same orientation first, then (pos_a, pos_b). Sizes
  // straddle the switch from comparison to radix sorting.
  dibella::util::Xoshiro256 rng(31);
  for (std::size_t n : {1u, 2u, 56u, 57u, 100u, 160u, 161u, 300u, 2000u}) {
    std::vector<dov::SeedPair> seeds;
    for (std::size_t i = 0; i < n; ++i) {
      const u32 high = rng.bernoulli(0.1) ? u32{1} << 31 : 0;
      seeds.push_back({high | static_cast<u32>(rng.uniform_below(400)),
                       high | static_cast<u32>(rng.uniform_below(400)),
                       static_cast<u8>(rng.bernoulli(0.6) ? 1 : 0)});
      if (rng.bernoulli(0.2)) seeds.push_back(seeds.back());
    }
    auto expected = seeds;
    std::sort(expected.begin(), expected.end(), [](const dov::SeedPair& x, const dov::SeedPair& y) {
      return std::tuple(1 - x.same_orientation, x.pos_a, x.pos_b) <
             std::tuple(1 - y.same_orientation, y.pos_a, y.pos_b);
    });
    expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
    EXPECT_EQ(dov::filter_seeds(seeds, dov::SeedFilterConfig::spaced(0)), expected) << n;
  }
}

namespace {

/// Independent oracle of filter_seeds: each orientation group as a std::set
/// (sorted, deduplicated), then the policy over the sets.
std::vector<dov::SeedPair> set_oracle(const std::vector<dov::SeedPair>& seeds,
                                      const dov::SeedFilterConfig& cfg) {
  std::set<std::pair<u32, u32>> groups[2];
  for (const auto& s : seeds) groups[s.same_orientation].insert({s.pos_a, s.pos_b});
  std::vector<dov::SeedPair> out;
  if (cfg.policy == dov::SeedFilterConfig::Policy::kOneSeed) {
    if (seeds.empty()) return out;
    const u8 o = groups[1].size() >= groups[0].size() ? 1 : 0;
    const auto median = std::next(groups[o].begin(),
                                  static_cast<std::ptrdiff_t>(groups[o].size() / 2));
    out.push_back({median->first, median->second, o});
  } else {
    for (const u8 o : {u8{1}, u8{0}}) {
      u64 next_ok = 0;
      for (const auto& [a, b] : groups[o]) {
        if (a < next_ok) continue;
        out.push_back({a, b, o});
        next_ok = u64{a} + cfg.min_distance;
      }
    }
  }
  if (cfg.max_seeds > 0 && out.size() > cfg.max_seeds) out.resize(cfg.max_seeds);
  return out;
}

}  // namespace

TEST(SeedFilter, MatchesSetOracleOnDuplicateHeavySeeds) {
  // Seed sets drawn from small pools of distinct seeds, so most seeds are
  // duplicates, with group sizes on both sides of the radix cutover (56
  // seeds per orientation group) and of the former one (160 per pair),
  // one orientation only, and forward and reverse groups with equal distinct
  // counts (the one-seed tie). Every policy must equal the set oracle.
  dibella::util::Xoshiro256 rng(160);
  std::vector<dov::SeedFilterConfig> policies = {
      dov::SeedFilterConfig::one_seed(), dov::SeedFilterConfig::spaced(50),
      dov::SeedFilterConfig::spaced(0), dov::SeedFilterConfig::all_seeds(17)};
  for (std::size_t i = 0, n = policies.size(); i < n; ++i) {
    auto capped = policies[i];
    capped.max_seeds = 2;
    policies.push_back(capped);
  }
  // Raw (fwd, rev) group sizes, duplicates included.
  const std::vector<std::pair<std::size_t, std::size_t>> sizes = {
      {1, 0},     {0, 1},     {5, 5},     {55, 0},    {0, 56},    {57, 0},
      {56, 57},   {57, 56},   {55, 58},   {159, 0},   {0, 160},   {161, 0},
      {160, 161}, {161, 160}, {300, 300}, {640, 0},   {0, 641},   {650, 12},
      {12, 650},  {2000, 3},  {170, 170}, {1000, 1000}};
  int ties = 0;
  for (int trial = 0; trial < 6; ++trial) {
    for (const auto& [n_fwd, n_rev] : sizes) {
      // Equal pools give groups of similar distinct counts; when both
      // groups draw every pool seed at least once they tie exactly.
      const std::size_t pool = 1 + rng.uniform_below(trial % 2 ? 8 : 64);
      const u32 span = trial % 3 == 0 ? 200 : 40'000;
      // Many seeds sharing a pos_a (a k-mer repeated within read b).
      const u32 span_a = trial % 3 == 2 ? 3 : span;
      std::vector<dov::SeedPair> distinct[2];
      for (u8 o : {u8{0}, u8{1}}) {
        std::set<std::pair<u32, u32>> seen;
        while (seen.size() < pool) {
          seen.insert({static_cast<u32>(rng.uniform_below(span_a)),
                       static_cast<u32>(rng.uniform_below(span))});
        }
        for (const auto& [a, b] : seen) distinct[o].push_back({a, b, o});
      }
      std::vector<dov::SeedPair> seeds;
      for (u8 o : {u8{1}, u8{0}}) {
        const std::size_t n = o ? n_fwd : n_rev;
        // Every pool seed once (when n allows), then duplicates.
        for (std::size_t i = 0; i < n; ++i) {
          seeds.push_back(i < pool ? distinct[o][i] : distinct[o][rng.uniform_below(pool)]);
        }
      }
      for (std::size_t i = seeds.size(); i > 1; --i) {
        std::swap(seeds[i - 1], seeds[rng.uniform_below(i)]);
      }
      if (n_fwd >= pool && n_rev >= pool) ++ties;
      for (const auto& policy : policies) {
        EXPECT_EQ(dov::filter_seeds(seeds, policy), set_oracle(seeds, policy))
            << n_fwd << " fwd, " << n_rev << " rev, pool " << pool;
      }
    }
  }
  EXPECT_GT(ties, 20);
}

TEST(OwnerHeuristic, DeterministicAndBalanced) {
  dibella::util::Xoshiro256 rng(1);
  int to_a = 0, to_b = 0;
  for (int i = 0; i < 20'000; ++i) {
    u64 a = rng.uniform_below(100'000);
    u64 b = rng.uniform_below(100'000);
    if (a == b) continue;
    int o1 = dov::task_owner_read(a, b);
    EXPECT_EQ(o1, dov::task_owner_read(a, b));  // deterministic
    (o1 == 0 ? to_a : to_b)++;
  }
  // Roughly even split between the two reads' owners (paper §8).
  double frac = static_cast<double>(to_a) / static_cast<double>(to_a + to_b);
  EXPECT_GT(frac, 0.40);
  EXPECT_LT(frac, 0.60);
}

// --- distributed overlap stage ----------------------------------------------

namespace {

struct OverlapRun {
  /// pair -> seeds, merged across ranks.
  std::map<std::pair<u64, u64>, std::vector<dov::SeedPair>> pairs;
  std::vector<dov::OverlapStageResult> per_rank;
  /// rank owning each pair (for locality checks).
  std::map<std::pair<u64, u64>, int> pair_rank;
};

OverlapRun run_overlap(int P, const std::vector<dibella::io::Read>& reads, int k,
                       u32 max_count, const dov::SeedFilterConfig& filter) {
  std::vector<u64> lens;
  for (auto& r : reads) lens.push_back(r.seq.size());
  dibella::io::ReadPartition part(lens, P);
  dibella::comm::World world(P);
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
  OverlapRun out;
  out.per_rank.resize(static_cast<std::size_t>(P));
  std::vector<std::vector<dov::AlignmentTask>> tasks(static_cast<std::size_t>(P));
  world.run([&](dibella::comm::Communicator& comm) {
    dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
    ctx.attach();
    dibella::io::ReadStore store(reads, part, comm.rank());
    dibella::dht::LocalKmerTable table(1024, max_count + 1);
    dibella::bloom::BloomStageConfig bcfg;
    bcfg.k = k;
    run_bloom_stage(ctx, store, bcfg, table);
    dibella::dht::HashTableStageConfig hcfg;
    hcfg.k = k;
    hcfg.max_count = max_count;
    run_hashtable_stage(ctx, store, hcfg, table);
    dov::OverlapStageConfig ocfg;
    ocfg.seed_filter = filter;
    tasks[static_cast<std::size_t>(comm.rank())] = dov::run_overlap_stage(
        ctx, table, part, ocfg, &out.per_rank[static_cast<std::size_t>(comm.rank())]);
  });
  for (int r = 0; r < P; ++r) {
    for (auto& t : tasks[static_cast<std::size_t>(r)]) {
      auto key = std::make_pair(t.rid_a, t.rid_b);
      EXPECT_EQ(out.pairs.count(key), 0u) << "pair owned twice";
      out.pairs[key] = t.seeds;
      out.pair_rank[key] = r;
    }
  }
  return out;
}

/// Serial oracle: pairs of reads sharing >= 1 retained k-mer, with the
/// number of (occurrence x occurrence) cross-read combinations per pair.
std::map<std::pair<u64, u64>, u64> serial_pair_oracle(
    const std::vector<dibella::io::Read>& reads, int k, u32 min_c, u32 max_c) {
  struct Occ {
    u64 rid;
    u32 pos;
  };
  std::map<std::string, std::vector<Occ>> by_kmer;
  for (const auto& r : reads) {
    dibella::kmer::for_each_canonical_kmer(
        r.seq, k, [&](const dibella::kmer::Occurrence& occ) {
          by_kmer[occ.kmer.to_string(k)].push_back({r.gid, occ.pos});
        });
  }
  std::map<std::pair<u64, u64>, u64> pairs;
  for (auto& [key, occs] : by_kmer) {
    if (occs.size() < min_c || occs.size() > max_c) continue;
    for (std::size_t i = 0; i + 1 < occs.size(); ++i) {
      for (std::size_t j = i + 1; j < occs.size(); ++j) {
        if (occs[i].rid == occs[j].rid) continue;
        u64 a = std::min(occs[i].rid, occs[j].rid);
        u64 b = std::max(occs[i].rid, occs[j].rid);
        ++pairs[{a, b}];
      }
    }
  }
  return pairs;
}

}  // namespace

TEST(OverlapStage, PairsMatchSerialOracle) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  const int k = 17;
  const u32 max_c = 8;
  auto oracle = serial_pair_oracle(sim.reads, k, 2, max_c);
  ASSERT_GT(oracle.size(), 100u);

  auto run = run_overlap(4, sim.reads, k, max_c, dov::SeedFilterConfig::all_seeds(k));
  ASSERT_EQ(run.pairs.size(), oracle.size());
  for (auto& [key, combos] : oracle) {
    ASSERT_TRUE(run.pairs.count(key))
        << "missing pair (" << key.first << "," << key.second << ")";
  }
  // Global task counters agree with the oracle's combination count.
  u64 formed = 0, received = 0, distinct = 0;
  for (auto& r : run.per_rank) {
    formed += r.pair_tasks_formed;
    received += r.pair_tasks_received;
    distinct += r.distinct_pairs;
  }
  u64 oracle_combos = 0;
  for (auto& [key, combos] : oracle) oracle_combos += combos;
  EXPECT_EQ(formed, oracle_combos);
  EXPECT_EQ(formed, received);
  EXPECT_EQ(distinct, oracle.size());
}

TEST(OverlapStage, PairSetIndependentOfRankCount) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(5));
  const int k = 17;
  auto p1 = run_overlap(1, sim.reads, k, 8, dov::SeedFilterConfig::one_seed());
  auto p5 = run_overlap(5, sim.reads, k, 8, dov::SeedFilterConfig::one_seed());
  ASSERT_EQ(p1.pairs.size(), p5.pairs.size());
  for (auto& [key, seeds] : p1.pairs) {
    auto it = p5.pairs.find(key);
    ASSERT_NE(it, p5.pairs.end());
    // Same filtered seeds regardless of P (determinism).
    ASSERT_EQ(it->second.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(it->second[i], seeds[i]);
    }
  }
}

TEST(OverlapStage, TaskLandsOnOwnerOfOneRead) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(9));
  const int P = 4;
  std::vector<u64> lens;
  for (auto& r : sim.reads) lens.push_back(r.seq.size());
  dibella::io::ReadPartition part(lens, P);
  auto run = run_overlap(P, sim.reads, 17, 8, dov::SeedFilterConfig::one_seed());
  for (auto& [key, rank] : run.pair_rank) {
    bool owns_a = part.owner_of(key.first) == rank;
    bool owns_b = part.owner_of(key.second) == rank;
    EXPECT_TRUE(owns_a || owns_b)
        << "pair (" << key.first << "," << key.second << ") on rank " << rank;
  }
}

TEST(OverlapStage, SeedPolicyControlsSeedVolume) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(15));
  const int k = 17;
  auto one = run_overlap(2, sim.reads, k, 8, dov::SeedFilterConfig::one_seed());
  auto spaced = run_overlap(2, sim.reads, k, 8, dov::SeedFilterConfig::spaced(500));
  auto all = run_overlap(2, sim.reads, k, 8, dov::SeedFilterConfig::all_seeds(k));
  auto total_seeds = [](const OverlapRun& r) {
    u64 n = 0;
    for (auto& [key, seeds] : r.pairs) n += seeds.size();
    return n;
  };
  u64 s_one = total_seeds(one), s_spaced = total_seeds(spaced), s_all = total_seeds(all);
  EXPECT_EQ(s_one, one.pairs.size());  // exactly one seed per pair
  EXPECT_LE(s_one, s_spaced);
  EXPECT_LE(s_spaced, s_all);
  EXPECT_GT(s_all, s_one);  // the dataset has multi-seed pairs
}

// --- pair runs: the stage-3 wire format and the receiver's grouping ---------

namespace {

/// One (pair, seed) discovery, unpacked: the oracle's record and the
/// tests' input. Canonical: rid_a < rid_b.
struct WireSeed {
  u64 rid_a = 0;
  u64 rid_b = 0;
  u32 pos_a = 0;
  u32 pos_b = 0;
  u8 same_orientation = 1;
};

/// Reference oracle, the consolidation the pair runs replaced: sort the flat
/// vector by the full (rid_a, rid_b, pos_a, pos_b, same_orientation) tuple,
/// group equal-pair runs, and apply the seed policy per group.
std::vector<dov::AlignmentTask> oracle_consolidate(std::vector<WireSeed> incoming,
                                                   const dov::SeedFilterConfig& seed_filter,
                                                   dov::OverlapStageResult* result) {
  result->pair_tasks_received = incoming.size();
  std::sort(incoming.begin(), incoming.end(), [](const WireSeed& x, const WireSeed& y) {
    return std::tie(x.rid_a, x.rid_b, x.pos_a, x.pos_b, x.same_orientation) <
           std::tie(y.rid_a, y.rid_b, y.pos_a, y.pos_b, y.same_orientation);
  });
  std::vector<dov::AlignmentTask> tasks;
  for (std::size_t run = 0; run < incoming.size();) {
    std::size_t end = run;
    std::vector<dov::SeedPair> seeds;
    while (end < incoming.size() && incoming[end].rid_a == incoming[run].rid_a &&
           incoming[end].rid_b == incoming[run].rid_b) {
      seeds.push_back({incoming[end].pos_a, incoming[end].pos_b,
                       incoming[end].same_orientation});
      ++end;
    }
    result->seeds_before_filter += seeds.size();
    dov::AlignmentTask task{incoming[run].rid_a, incoming[run].rid_b,
                            dov::filter_seeds(seeds, seed_filter)};
    result->seeds_after_filter += task.seeds.size();
    tasks.push_back(std::move(task));
    run = end;
  }
  result->distinct_pairs = tasks.size();
  return tasks;
}

/// Stage `seeds` as the overlap stage stages them and encode them as pair
/// runs. Every rid must be below PairKeys::kMaxReads.
std::vector<u8> encode(const std::vector<WireSeed>& seeds) {
  std::vector<dov::OverlapTask> tasks;
  for (const auto& s : seeds) {
    tasks.push_back({dov::PairKeys::key(s.rid_a, s.rid_b, s.same_orientation), s.pos_a, s.pos_b});
  }
  std::vector<u8> bytes;
  dibella::util::RadixScratch<dov::OverlapTask> scratch;
  dov::encode_pair_runs(tasks, bytes, scratch);
  return bytes;
}

/// The stage's path without the exchange: split the tasks into `payloads`
/// random slices (one sender's share of one batch each), encode every slice
/// as pair runs, decode the payloads in a shuffled order, consolidate.
std::vector<dov::AlignmentTask> consolidate_via_runs(const std::vector<WireSeed>& all,
                                                     const dov::SeedFilterConfig& seed_filter,
                                                     std::size_t payloads,
                                                     dibella::util::Xoshiro256& rng,
                                                     dov::OverlapStageResult* result) {
  std::vector<std::vector<WireSeed>> slices(payloads);
  for (const auto& t : all) slices[rng.uniform_below(payloads)].push_back(t);
  std::vector<std::vector<u8>> bytes(payloads);
  for (std::size_t i = 0; i < payloads; ++i) bytes[i] = encode(slices[i]);
  for (std::size_t i = payloads; i > 1; --i) std::swap(bytes[i - 1], bytes[rng.uniform_below(i)]);
  dov::PairSeedTable table;
  for (const auto& b : bytes) table.add_runs(b.data(), b.size());
  return table.consolidate(seed_filter, result);
}

/// Random seeds over `reads` reads (at least 2), canonical rid_a < rid_b.
std::vector<WireSeed> random_tasks(dibella::util::Xoshiro256& rng, int n, u64 reads,
                                   u32 max_pos) {
  std::vector<WireSeed> tasks;
  for (int i = 0; i < n; ++i) {
    WireSeed t;
    t.rid_a = rng.uniform_below(reads);
    t.rid_b = rng.uniform_below(reads - 1);
    if (t.rid_b >= t.rid_a) ++t.rid_b;  // never a self pair
    t.pos_a = static_cast<u32>(rng.uniform_below(max_pos));
    t.pos_b = static_cast<u32>(rng.uniform_below(max_pos));
    if (t.rid_a > t.rid_b) {
      std::swap(t.rid_a, t.rid_b);
      std::swap(t.pos_a, t.pos_b);
    }
    t.same_orientation = rng.bernoulli(0.7) ? 1 : 0;
    tasks.push_back(t);
    if (rng.bernoulli(0.1)) tasks.push_back(t);  // exact duplicate seed
  }
  return tasks;
}

void expect_same_tasks(const std::vector<dov::AlignmentTask>& got,
                       const std::vector<dov::AlignmentTask>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].rid_a, want[i].rid_a);
    EXPECT_EQ(got[i].rid_b, want[i].rid_b);
    EXPECT_EQ(got[i].seeds, want[i].seeds) << "pair " << i;
  }
}

void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

/// Pair runs written field by field from the wire grammar, for rids of any
/// width (the staged key stops at PairKeys::kMaxReads): `seeds` grouped by
/// (rid_a, rid_b) ascending, each pair's seeds in their input order.
std::vector<u8> write_runs(std::vector<WireSeed> seeds) {
  std::stable_sort(seeds.begin(), seeds.end(), [](const WireSeed& x, const WireSeed& y) {
    return std::tie(x.rid_a, x.rid_b) < std::tie(y.rid_a, y.rid_b);
  });
  std::vector<u8> bytes;
  u64 prev_a = 0;
  for (std::size_t i = 0; i < seeds.size();) {
    std::size_t end = i;
    while (end < seeds.size() && seeds[end].rid_a == seeds[i].rid_a &&
           seeds[end].rid_b == seeds[i].rid_b) {
      ++end;
    }
    put_varint(bytes, seeds[i].rid_a - prev_a);
    put_varint(bytes, seeds[i].rid_b);
    put_varint(bytes, end - i);
    for (std::size_t j = i; j < end; ++j) {
      put_varint(bytes, seeds[j].pos_a);
      put_varint(bytes, (u64{seeds[j].pos_b} << 1) | seeds[j].same_orientation);
    }
    prev_a = seeds[i].rid_a;
    i = end;
  }
  return bytes;
}

u64 get_varint(const std::vector<u8>& in, std::size_t& at) {
  u64 v = 0;
  for (int shift = 0;; shift += 7) {
    const u8 byte = in.at(at++);
    v |= static_cast<u64>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

/// Byte offsets at which the runs of a valid payload end (0 included).
std::vector<std::size_t> run_boundaries(const std::vector<u8>& bytes) {
  std::vector<std::size_t> ends = {0};
  std::size_t at = 0;
  while (at < bytes.size()) {
    get_varint(bytes, at);  // delta rid_a
    get_varint(bytes, at);  // rid_b
    for (u64 n = get_varint(bytes, at) * 2; n > 0; --n) get_varint(bytes, at);
    ends.push_back(at);
  }
  return ends;
}

/// Decode `bytes` into a fresh table; true on success, false on
/// dibella::Error (any other exception escapes and fails the test).
bool decodes(const std::vector<u8>& bytes, u64* seeds = nullptr) {
  dov::PairSeedTable table;
  try {
    table.add_runs(bytes.data(), bytes.size());
  } catch (const dibella::Error&) {
    return false;
  }
  if (seeds) *seeds = table.seeds();
  return true;
}

}  // namespace

TEST(ConsolidateTasks, MatchesMapBasedOracle) {
  // Pair runs must reproduce the former node-based std::map consolidation
  // exactly: same pairs in the same order, same filtered seeds, same
  // counters.
  dibella::util::Xoshiro256 rng(77);
  for (auto policy : {dov::SeedFilterConfig::one_seed(), dov::SeedFilterConfig::spaced(40),
                      dov::SeedFilterConfig::all_seeds(17)}) {
    auto wire = random_tasks(rng, 4000, 60, 2000);

    // Map-based oracle (the pre-refactor consolidation).
    std::map<std::pair<u64, u64>, std::vector<dov::SeedPair>> oracle;
    for (const auto& t : wire) {
      oracle[{t.rid_a, t.rid_b}].push_back(dov::SeedPair{t.pos_a, t.pos_b, t.same_orientation});
    }

    dov::OverlapStageResult res;
    auto tasks = consolidate_via_runs(wire, policy, 7, rng, &res);
    EXPECT_EQ(res.pair_tasks_received, wire.size());
    EXPECT_EQ(res.distinct_pairs, oracle.size());
    EXPECT_EQ(res.seeds_before_filter, wire.size());
    ASSERT_EQ(tasks.size(), oracle.size());
    u64 seeds_after = 0;
    std::size_t i = 0;
    for (auto& [key, seeds] : oracle) {  // map iteration = (rid_a, rid_b) order
      EXPECT_EQ(tasks[i].rid_a, key.first);
      EXPECT_EQ(tasks[i].rid_b, key.second);
      EXPECT_EQ(tasks[i].seeds, dov::filter_seeds(seeds, policy));
      seeds_after += tasks[i].seeds.size();
      ++i;
    }
    EXPECT_EQ(res.seeds_after_filter, seeds_after);
  }
}

TEST(PairRuns, MatchSortThenGroupOracle) {
  // Differential: random task sets (duplicates, both orientations, dense
  // and sparse pairs) split over 1..9 payloads,
  // under every seed policy with and without a seed cap. Tasks and all four
  // consolidation counters must equal the sort-then-group oracle's.
  dibella::util::Xoshiro256 rng(2026);
  std::vector<dov::SeedFilterConfig> policies = {dov::SeedFilterConfig::one_seed(),
                                                 dov::SeedFilterConfig::spaced(300),
                                                 dov::SeedFilterConfig::all_seeds(17)};
  for (std::size_t i = 0, n = policies.size(); i < n; ++i) {
    auto capped = policies[i];
    capped.max_seeds = 3;
    policies.push_back(capped);
  }
  for (int trial = 0; trial < 12; ++trial) {
    const u64 reads = trial % 3 == 0 ? 6 : (trial % 3 == 1 ? 200 : 5000);
    auto all = random_tasks(rng, 1 + static_cast<int>(rng.uniform_below(3000)), reads,
                            trial % 2 ? 30'000 : 100);
    for (const auto& policy : policies) {
      dov::OverlapStageResult want_res, got_res;
      auto want = oracle_consolidate(all, policy, &want_res);
      auto got = consolidate_via_runs(all, policy, 1 + rng.uniform_below(9), rng, &got_res);
      expect_same_tasks(got, want);
      EXPECT_EQ(got_res.pair_tasks_received, want_res.pair_tasks_received);
      EXPECT_EQ(got_res.distinct_pairs, want_res.distinct_pairs);
      EXPECT_EQ(got_res.seeds_before_filter, want_res.seeds_before_filter);
      EXPECT_EQ(got_res.seeds_after_filter, want_res.seeds_after_filter);
    }
  }
  // No tasks at all: no bytes, no pairs.
  auto bytes = encode({});
  EXPECT_TRUE(bytes.empty());
  dov::PairSeedTable table;
  table.add_runs(bytes.data(), bytes.size());
  EXPECT_TRUE(table.consolidate(dov::SeedFilterConfig::one_seed()).empty());
}

TEST(PairRuns, RoundTripWideRidsAndPositions) {
  // Staged tasks carry rids up to the pair key's read-count limit and
  // positions over the full u32 range; both ends round-trip.
  const u64 reads = dov::PairKeys::kMaxReads;
  const u64 top = reads - 1;
  const u32 max32 = ~u32{0};
  std::vector<WireSeed> tasks = {
      {top - 7, top - 3, u32{1} << 31, max32, 1},
      {top - 7, top - 3, 5, max32 - 1, 0},
      {0, top, max32, 0, 0},
      {top - 1, top, 0, max32, 1},
      {u64{1} << 30, top, 0x80000000u, 0x7FFFFFFFu, 1},
  };
  dov::OverlapStageResult want_res, got_res;
  auto want = oracle_consolidate(tasks, dov::SeedFilterConfig::all_seeds(17), &want_res);
  dibella::util::Xoshiro256 rng(3);
  auto got =
      consolidate_via_runs(tasks, dov::SeedFilterConfig::all_seeds(17), 2, rng, &got_res);
  expect_same_tasks(got, want);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].rid_a, 0u);
  EXPECT_EQ(got[0].rid_b, top);
  EXPECT_EQ(got[0].seeds, (std::vector<dov::SeedPair>{{max32, 0, 0}}));
  EXPECT_EQ(got_res.seeds_after_filter, want_res.seeds_after_filter);

  // Every bit width of rids (up to the limit) and positions, across the
  // varint length steps.
  std::vector<WireSeed> widths;
  for (int bits = 1; bits <= 32; ++bits) {
    const u64 hi = std::min(top, (u64{1} << bits) - 1);
    const u32 pos = static_cast<u32>(bits >= 32 ? ~u32{0} : (u32{1} << bits) - 1);
    widths.push_back({hi - 1, hi, pos, pos / 3, static_cast<u8>(bits % 2)});
    widths.push_back({hi / 2, hi, pos / 5, pos, 1});
  }
  want = oracle_consolidate(widths, dov::SeedFilterConfig::all_seeds(1), &want_res);
  got = consolidate_via_runs(widths, dov::SeedFilterConfig::all_seeds(1), 3, rng, &got_res);
  expect_same_tasks(got, want);

  // The wire grammar itself carries 64-bit rids: runs written field by
  // field, beyond any staged key, decode to the oracle's tasks.
  const std::vector<WireSeed> wide = {
      {0, ~u64{0}, max32, 0, 0},
      {u64{1} << 32, u64{1} << 40, 7, max32, 1},
      {u64{1} << 32, u64{1} << 40, 3, 9, 1},
      {~u64{0} - 1, ~u64{0}, 0, max32, 1},
  };
  const std::vector<u8> bytes = write_runs(wide);
  dov::PairSeedTable table;
  table.add_runs(bytes.data(), bytes.size());
  expect_same_tasks(table.consolidate(dov::SeedFilterConfig::all_seeds(1)),
                    oracle_consolidate(wide, dov::SeedFilterConfig::all_seeds(1), &want_res));

  // A key whose pair is not rid_a < rid_b is refused.
  std::vector<u8> out;
  dibella::util::RadixScratch<dov::OverlapTask> scratch;
  for (const auto& [a, b] : {std::pair<u64, u64>{4, 4}, {5, 4}}) {
    std::vector<dov::OverlapTask> bad = {{dov::PairKeys::key(a, b, 1), 0, 0}};
    EXPECT_THROW(dov::encode_pair_runs(bad, out, scratch), dibella::Error);
  }
}

TEST(PairKeys, RoundTripAtTheReadCountLimit) {
  // Unit test of the staged key: rids at both ends of the largest read
  // count, both orientations. Keys decode to their fields and ascend by
  // (rid_a, rid_b, same orientation first).
  const u64 reads = dov::PairKeys::kMaxReads;
  EXPECT_EQ(reads, (u64{1} << 31) - 1);
  const u64 top = reads - 1;
  const std::vector<std::pair<u64, u64>> pairs = {
      {0, 1}, {0, top}, {1, 2}, {u64{1} << 30, top}, {top - 2, top - 1}, {top - 1, top}};
  u64 prev = 0;
  bool first = true;
  for (const auto& [a, b] : pairs) {
    for (const u8 o : {u8{1}, u8{0}}) {
      const u64 key = dov::PairKeys::key(a, b, o);
      EXPECT_EQ(dov::PairKeys::rid_a(key), a);
      EXPECT_EQ(dov::PairKeys::rid_b(key), b);
      EXPECT_EQ(dov::PairKeys::same_orientation(key), o);
      EXPECT_EQ(dov::PairKeys::pair(key), dov::PairKeys::pair(dov::PairKeys::key(a, b, o ^ 1)));
      if (!first) {
        EXPECT_GT(key, prev) << a << "," << b << "," << int{o};
      }
      prev = key;
      first = false;
    }
  }
  // Positions 0 and 2^32 - 1 with those keys come back through the encoder
  // and the decoder unchanged.
  const u32 max32 = ~u32{0};
  std::vector<WireSeed> seeds;
  for (const auto& [a, b] : pairs) {
    for (const u8 o : {u8{1}, u8{0}}) {
      seeds.push_back({a, b, 0, max32, o});
      seeds.push_back({a, b, max32, 0, o});
    }
  }
  dov::PairSeedTable table;
  const auto bytes = encode(seeds);
  table.add_runs(bytes.data(), bytes.size());
  dov::OverlapStageResult want_res;
  expect_same_tasks(table.consolidate(dov::SeedFilterConfig::all_seeds(1)),
                    oracle_consolidate(seeds, dov::SeedFilterConfig::all_seeds(1), &want_res));

  // Above the limit is a typed error; fewer reads are fine.
  EXPECT_THROW(dov::PairKeys::check_reads(reads + 1), dibella::Error);
  EXPECT_THROW(dov::PairKeys::check_reads(~u64{0}), dibella::Error);
  EXPECT_NO_THROW(dov::PairKeys::check_reads(reads));
  EXPECT_NO_THROW(dov::PairKeys::check_reads(0));
}

TEST(PairRuns, DecoderRejectsEachMalformedField) {
  auto run = [](std::initializer_list<u64> fields) {
    std::vector<u8> b;
    for (u64 f : fields) put_varint(b, f);
    return b;
  };
  u64 seeds = 0;
  ASSERT_TRUE(decodes(run({3, 9, 2, 10, 21, 11, 20}), &seeds));  // a valid baseline
  EXPECT_EQ(seeds, 2u);
  EXPECT_FALSE(decodes(run({3, 9, 0})));                   // empty run
  EXPECT_FALSE(decodes(run({3, 9, 3, 10, 21, 11, 20})));   // count > seeds present
  EXPECT_FALSE(decodes(run({3, 9, u64{1} << 62, 1, 1})));  // count vs remaining bytes
  EXPECT_FALSE(decodes(run({9, 9, 1, 1, 1})));             // rid_a == rid_b
  EXPECT_FALSE(decodes(run({9, 3, 1, 1, 1})));             // rid_a > rid_b
  EXPECT_FALSE(decodes(run({3, 9, 1, 1, 1, 0, 9, 1, 1, 1})));  // same pair again
  EXPECT_FALSE(decodes(run({3, 9, 1, 1, 1, 0, 5, 1, 1, 1})));  // pairs descend
  EXPECT_TRUE(decodes(run({3, 9, 1, 1, 1, 0, 10, 1, 1, 1})));  // ... ascend is fine
  EXPECT_FALSE(decodes(run({3, 9, 1, u64{1} << 32, 1})));      // pos_a past u32
  EXPECT_FALSE(decodes(run({3, 9, 1, 1, u64{1} << 33})));      // pos_b past u32
  // rid_a = previous rid_a + delta must not wrap the 64-bit pair key.
  EXPECT_FALSE(decodes(run({~u64{0} - 1, ~u64{0}, 1, 1, 1, 2, ~u64{0}, 1, 1, 1})));
  EXPECT_TRUE(decodes(run({~u64{0} - 2, ~u64{0}, 1, 1, 1, 1, ~u64{0}, 1, 1, 1})));

  // Varints: ten bytes carry 64 bits; an eleventh byte, or bits past 63 in
  // the tenth, are rejected; so is a varint cut off mid-way.
  // delta 0, rid_b = ~u64{0} in ten bytes, count 1, seed (0, 0).
  const std::vector<u8> ok = {0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                              0xFF, 0xFF, 0x01, 0x01, 0x00, 0x00};
  EXPECT_TRUE(decodes(ok));
  std::vector<u8> bits65 = ok;
  bits65[10] = 0x02;  // tenth byte of rid_b holds bit 64
  EXPECT_FALSE(decodes(bits65));
  std::vector<u8> eleven = ok;
  eleven[10] = 0x81;  // a continuation bit on the tenth byte: eleven bytes
  EXPECT_FALSE(decodes(eleven));
  EXPECT_FALSE(decodes({0x03, 0x89}));  // rid_b's continuation bit, then nothing
}

TEST(PairRuns, RejectedPayloadLeavesTheTableUnchanged) {
  // A payload that fails validation part-way (a flipped bit, or a flip and
  // a cut), arriving between two accepted ones, adds nothing: the table
  // holds the same bytes and seeds, and consolidates exactly the accepted
  // payloads, as if it had never arrived.
  dibella::util::Xoshiro256 rng(8);
  int rejected = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto first = random_tasks(rng, 300, 40, 5'000);
    const auto second = random_tasks(rng, 300, 40, 5'000);
    const auto a = encode(first), b = encode(second);
    auto bad = encode(random_tasks(rng, 300, 40, 5'000));
    bad[rng.uniform_below(bad.size())] ^= static_cast<u8>(1u << rng.uniform_below(8));
    if (trial % 2) bad.resize(rng.uniform_below(bad.size()));
    if (decodes(bad)) continue;  // the mutation happened to keep the stream valid
    ++rejected;

    dov::PairSeedTable clean, hit;
    clean.add_runs(a.data(), a.size());
    clean.add_runs(b.data(), b.size());
    hit.add_runs(a.data(), a.size());
    EXPECT_THROW(hit.add_runs(bad.data(), bad.size()), dibella::Error);
    hit.add_runs(b.data(), b.size());
    EXPECT_EQ(hit.held_bytes(), clean.held_bytes());
    EXPECT_EQ(hit.seeds(), first.size() + second.size());
    const auto policy = dov::SeedFilterConfig::all_seeds(17);
    auto kept = first;
    kept.insert(kept.end(), second.begin(), second.end());
    dov::OverlapStageResult want_res, got_res;
    const auto want = oracle_consolidate(kept, policy, &want_res);
    expect_same_tasks(clean.consolidate(policy), want);
    expect_same_tasks(hit.consolidate(policy, &got_res), want);
    EXPECT_EQ(got_res.pair_tasks_received, want_res.pair_tasks_received);
  }
  EXPECT_GE(rejected, 5);
}

TEST(PairRuns, TableHoldsTheValidatedPayloadsAtWireDensity) {
  // Dense pairs (few reads, so hundreds of seeds per pair) over many
  // payloads: the table keeps the payload bytes and a small index per
  // payload, well under the 12-byte SeedPair per seed a decoded table would
  // hold, and still consolidates to the oracle's tasks.
  dibella::util::Xoshiro256 rng(30);
  for (const u64 reads : {u64{6}, u64{40}}) {
    const auto all = random_tasks(rng, 20'000, reads, 10'000);
    const std::size_t payloads = 12;
    std::vector<std::vector<WireSeed>> slices(payloads);
    for (const auto& t : all) slices[rng.uniform_below(payloads)].push_back(t);
    dov::PairSeedTable table;
    u64 bytes = 0;
    for (auto& slice : slices) {
      const auto b = encode(slice);
      table.add_runs(b.data(), b.size());
      bytes += b.size();
    }
    EXPECT_EQ(table.seeds(), all.size());
    // The index is one vector per payload, grown by doubling.
    EXPECT_GE(table.held_bytes(), bytes);
    EXPECT_LE(table.held_bytes(), bytes + 2 * payloads * sizeof(std::vector<u8>) + 64);
    EXPECT_LT(table.held_bytes(), all.size() * sizeof(dov::SeedPair) / 2);

    const auto policy = dov::SeedFilterConfig::all_seeds(17);
    dov::OverlapStageResult want_res, got_res;
    expect_same_tasks(table.consolidate(policy, &got_res),
                      oracle_consolidate(all, policy, &want_res));
    EXPECT_EQ(got_res.pair_tasks_received, want_res.pair_tasks_received);
    EXPECT_EQ(got_res.seeds_after_filter, want_res.seeds_after_filter);
    // Consolidation empties the table.
    EXPECT_EQ(table.seeds(), 0u);
    EXPECT_EQ(table.held_bytes(), 0u);
  }
}

TEST(PairRuns, SeededMutationsEndInErrorOrAValidDecode) {
  // Truncate, flip and splice encoded runs. A mutation may still form a
  // valid stream (a cut between runs, a flipped position bit), so each case
  // must either decode or throw dibella::Error: never another exception,
  // never more seeds than half the bytes. Cuts inside a run must throw.
  dibella::util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    // Odd trials go through the staged encoder; even ones carry rids up to
    // 2^36, past the staged key's limit but not the decoder's, written field
    // by field so that 6-byte rid varints are cut, flipped and spliced too.
    auto tasks = random_tasks(rng, 1 + static_cast<int>(rng.uniform_below(200)),
                              trial % 2 ? 20 : (u64{1} << 36), 50'000);
    const auto bytes = trial % 2 ? encode(tasks) : write_runs(tasks);
    const auto boundaries = run_boundaries(bytes);
    ASSERT_EQ(boundaries.back(), bytes.size());
    u64 seeds = 0;
    ASSERT_TRUE(decodes(bytes, &seeds));
    EXPECT_EQ(seeds, tasks.size());

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<u8> b(bytes.begin(), bytes.begin() + cut);
      const bool at_boundary =
          std::find(boundaries.begin(), boundaries.end(), cut) != boundaries.end();
      EXPECT_EQ(decodes(b), at_boundary) << "cut at " << cut;
    }
    for (int f = 0; f < 64; ++f) {
      std::vector<u8> b = bytes;
      b[rng.uniform_below(b.size())] ^= static_cast<u8>(1u << rng.uniform_below(8));
      if (decodes(b, &seeds)) {
        EXPECT_LE(seeds, b.size() / 2);
      }
    }
    for (int f = 0; f < 16; ++f) {
      const auto other =
          encode(random_tasks(rng, 1 + static_cast<int>(rng.uniform_below(50)), 1000, 70'000));
      std::vector<u8> b(bytes.begin(), bytes.begin() + rng.uniform_below(bytes.size() + 1));
      b.insert(b.end(), other.begin() + rng.uniform_below(other.size()), other.end());
      if (decodes(b, &seeds)) {
        EXPECT_LE(seeds, b.size() / 2);
      }
    }
  }
}

TEST(OverlapStage, TaskBalanceAcrossRanks) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(25));
  const int P = 4;
  auto run = run_overlap(P, sim.reads, 17, 8, dov::SeedFilterConfig::one_seed());
  std::vector<u64> per_rank(static_cast<std::size_t>(P), 0);
  for (auto& [key, rank] : run.pair_rank) ++per_rank[static_cast<std::size_t>(rank)];
  u64 total = 0, mx = 0;
  for (u64 c : per_rank) {
    total += c;
    mx = std::max(mx, c);
  }
  ASSERT_GT(total, 0u);
  // The odd/even heuristic keeps the busiest rank within 2x of average on
  // this small dataset (the paper reports <0.002% at its scale).
  EXPECT_LT(static_cast<double>(mx), 2.0 * static_cast<double>(total) / P);
}
