// Tests for the stage-4 task loop (align/alignment_stage.hpp) driven
// directly: its worker pool must produce the same records, counters and
// RankTrace compute units for every worker count, must hand a worker's
// exception back to the calling thread, and must report on its
// `align:extend` span the lanes of the x-drop kernel that ran.

#include "align/alignment_stage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "align/detail/xdrop_kernels.hpp"
#include "comm/world.hpp"
#include "kmer/dna.hpp"
#include "obs/span.hpp"
#include "util/random.hpp"

using dibella::u32;
using dibella::u64;
using dibella::u8;
using dibella::align::AlignmentRecord;
using dibella::align::AlignmentStageConfig;
using dibella::align::AlignmentStageResult;
using dibella::overlap::AlignmentTask;
using dibella::overlap::SeedPair;

namespace {

constexpr int kK = 17;

/// Reads sampled from one random genome with 5% substitutions, half of them
/// stored reverse-complemented, plus their genome placement.
struct ReadSet {
  std::vector<dibella::io::Read> reads;
  std::vector<u64> start;
  std::vector<bool> rc;
};

ReadSet make_reads(u64 seed, std::size_t n_reads) {
  dibella::util::Xoshiro256 rng(seed);
  std::string genome(12'000, 'A');
  for (char& c : genome) c = "ACGT"[rng.uniform_below(4)];
  ReadSet rs;
  for (std::size_t i = 0; i < n_reads; ++i) {
    const u64 len = 600 + rng.uniform_below(600);
    const u64 start = rng.uniform_below(genome.size() - len);
    std::string seq = genome.substr(start, len);
    for (char& c : seq) {
      if (rng.bernoulli(0.05)) c = "ACGT"[rng.uniform_below(4)];
    }
    const bool rc = rng.bernoulli(0.5);
    dibella::io::Read r;
    r.gid = i;
    r.name = std::string("r").append(std::to_string(i));
    r.seq = rc ? dibella::kmer::reverse_complement(seq) : seq;
    rs.reads.push_back(std::move(r));
    rs.start.push_back(start);
    rs.rc.push_back(rc);
  }
  return rs;
}

/// Forward-frame position in read `i` of the k-mer at genome position g.
u32 read_pos(const ReadSet& rs, std::size_t i, u64 g) {
  const u64 off = g - rs.start[i];
  const u64 len = rs.reads[i].seq.size();
  return static_cast<u32>(rs.rc[i] ? len - kK - off : off);
}

/// Every genome-overlapping pair with 1-4 true seeds (both orientations;
/// multi-seed pairs exercise chaining), every 7th pair also carrying a
/// corrupt seed past the end of a or b, plus unrelated (false) pairs.
std::vector<AlignmentTask> make_tasks(const ReadSet& rs, u64 seed) {
  dibella::util::Xoshiro256 rng(seed);
  std::vector<AlignmentTask> tasks;
  const std::size_t n = rs.reads.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const u64 lo = std::max(rs.start[i], rs.start[j]);
      const u64 hi = std::min(rs.start[i] + rs.reads[i].seq.size(),
                              rs.start[j] + rs.reads[j].seq.size());
      AlignmentTask t;
      t.rid_a = i;
      t.rid_b = j;
      const u8 same = rs.rc[i] == rs.rc[j] ? 1 : 0;
      if (hi >= lo + 200) {
        const u64 n_seeds = 1 + rng.uniform_below(4);
        for (u64 s = 0; s < n_seeds; ++s) {
          const u64 g = lo + rng.uniform_below(hi - lo - kK);
          t.seeds.push_back(SeedPair{read_pos(rs, i, g), read_pos(rs, j, g), same});
        }
        std::sort(t.seeds.begin(), t.seeds.end(), [](const SeedPair& x, const SeedPair& y) {
          return std::tie(x.pos_a, x.pos_b) < std::tie(y.pos_a, y.pos_b);
        });
      } else if (rng.bernoulli(0.05)) {
        t.seeds.push_back(SeedPair{static_cast<u32>(rs.reads[i].seq.size() / 2),
                                   static_cast<u32>(rs.reads[j].seq.size() / 2), same});
      } else {
        continue;
      }
      if (tasks.size() % 7 == 0) {
        // Past the end of b in its forward frame; in the RC frame the
        // position would wrap below zero.
        const u32 len_b = static_cast<u32>(rs.reads[j].seq.size());
        t.seeds.push_back(SeedPair{0, len_b - kK + 3, static_cast<u8>(tasks.size() % 2)});
      }
      if (tasks.size() % 11 == 0) {
        t.seeds.push_back(SeedPair{static_cast<u32>(rs.reads[i].seq.size()), 0, same});
      }
      tasks.push_back(std::move(t));
    }
  }
  return tasks;
}

struct StageRun {
  std::vector<AlignmentRecord> records;
  AlignmentStageResult result;
  dibella::netsim::RankTrace trace;
};

StageRun run_stage(const dibella::io::ReadStore& store, const std::vector<AlignmentTask>& tasks,
                   const AlignmentStageConfig& cfg, dibella::obs::Trace* spans = nullptr) {
  StageRun out;
  dibella::comm::World world(1);
  world.run([&](dibella::comm::Communicator& comm) {
    dibella::core::StageContext ctx{comm, out.trace, spans};
    out.records = dibella::align::run_alignment_stage(ctx, store, tasks, cfg, &out.result);
  });
  return out;
}

void expect_identical(const StageRun& want, const StageRun& got, const std::string& what) {
  EXPECT_TRUE(got.records == want.records) << what;
  EXPECT_TRUE(got.result == want.result) << what;
  const auto& we = want.trace.events();
  const auto& ge = got.trace.events();
  ASSERT_EQ(ge.size(), we.size()) << what;
  for (std::size_t i = 0; i < we.size(); ++i) {
    EXPECT_EQ(ge[i].stage, we[i].stage) << what;
    EXPECT_TRUE(ge[i].units == we[i].units) << what;
    EXPECT_EQ(ge[i].working_set_bytes, we[i].working_set_bytes) << what;
  }
}

dibella::io::ReadPartition partition_of(const std::vector<dibella::io::Read>& reads,
                                        int ranks) {
  std::vector<u64> lens;
  for (const auto& r : reads) lens.push_back(r.seq.size());
  return dibella::io::ReadPartition(lens, ranks);
}

}  // namespace

TEST(AlignmentStage, WorkerCountChangesNoRecordCounterOrComputeUnit) {
  const ReadSet rs = make_reads(0x5EED, 60);
  const auto tasks = make_tasks(rs, 0xA11);
  const dibella::io::ReadStore store(rs.reads, partition_of(rs.reads, 1), 0);
  ASSERT_GT(tasks.size(), 8u * 32u) << "too few tasks to keep 8 workers busy";

  for (const bool chain : {false, true}) {
    for (const int min_score : {0, 150}) {
      AlignmentStageConfig cfg;
      cfg.k = kK;
      cfg.chain = chain;
      cfg.min_score = min_score;
      const StageRun serial = run_stage(store, tasks, cfg);
      const std::string what =
          "chain=" + std::to_string(chain) + " min_score=" + std::to_string(min_score);

      // The task set covers what it claims to.
      const auto& res = serial.result;
      EXPECT_EQ(res.pairs_aligned, tasks.size()) << what;
      const auto n_orient = [&](u8 o) {
        return std::count_if(serial.records.begin(), serial.records.end(),
                             [o](const AlignmentRecord& r) { return r.same_orientation == o; });
      };
      EXPECT_GT(n_orient(0), 0) << what;
      EXPECT_GT(n_orient(1), 0) << what;
      if (chain) {
        EXPECT_GT(res.chain_anchors, 0u) << what;
        EXPECT_GT(res.chain_dropped_seeds, 0u) << what;
      } else {
        u64 seeds = 0;
        for (const auto& t : tasks) seeds += t.seeds.size();
        EXPECT_LT(res.alignments_computed, seeds) << what << ": no corrupt seed skipped";
      }
      if (min_score > 0) {
        EXPECT_GT(res.records_kept, 0u) << what;
        EXPECT_LT(res.records_kept, res.pairs_aligned) << what << ": min_score cut nothing";
      }

      for (const int workers : {2, 3, 8}) {
        cfg.workers = workers;
        expect_identical(serial, run_stage(store, tasks, cfg),
                         what + " workers=" + std::to_string(workers));
      }
    }
  }
}

TEST(AlignmentStage, FewerTasksThanWorkers) {
  const ReadSet rs = make_reads(0xF00, 12);
  const auto all = make_tasks(rs, 0xB22);
  ASSERT_GE(all.size(), 3u);
  const dibella::io::ReadStore store(rs.reads, partition_of(rs.reads, 1), 0);
  for (const std::size_t n : {0, 1, 3}) {
    const std::vector<AlignmentTask> tasks(all.begin(), all.begin() + n);
    AlignmentStageConfig cfg;
    cfg.k = kK;
    const StageRun serial = run_stage(store, tasks, cfg);
    EXPECT_EQ(serial.result.pairs_aligned, n);
    cfg.workers = 8;
    expect_identical(serial, run_stage(store, tasks, cfg), "tasks=" + std::to_string(n));
  }
}

TEST(AlignmentStage, MissingReadRethrowsOnTheCaller) {
  // Rank 0's store of a two-rank partition: rank 1's reads are neither local
  // nor cached, so every task below fails its lookup — on whichever worker
  // claims it. The error must reach the caller (std::terminate otherwise).
  const ReadSet rs = make_reads(0xBAD, 40);
  const auto partition = partition_of(rs.reads, 2);
  const dibella::io::ReadStore store(rs.reads, partition, 0);
  const u64 remote = partition.first_gid(1);
  std::vector<AlignmentTask> tasks(300);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].rid_a = i % remote;
    tasks[i].rid_b = remote + i % partition.count(1);
    tasks[i].seeds.push_back(SeedPair{0, 0, 1});
  }
  for (const int workers : {1, 8}) {
    AlignmentStageConfig cfg;
    cfg.k = kK;
    cfg.workers = workers;
    EXPECT_THROW(run_stage(store, tasks, cfg), dibella::Error) << "workers=" << workers;
  }
}

TEST(AlignmentStage, BlockModeStoreRefusesExtraWorkers) {
  const ReadSet rs = make_reads(0xB10C, 20);
  dibella::io::BlockConfig blocks;
  blocks.blocks = 4;
  const dibella::io::ReadStore store(rs.reads, partition_of(rs.reads, 1), 0, blocks);
  const auto tasks = make_tasks(rs, 0xC33);
  AlignmentStageConfig cfg;
  cfg.k = kK;
  const StageRun serial = run_stage(store, tasks, cfg);
  EXPECT_EQ(serial.result.pairs_aligned, tasks.size());
  cfg.workers = 2;
  EXPECT_THROW(run_stage(store, tasks, cfg), dibella::Error);
}

TEST(AlignmentStage, ExtendSpanReportsTheLanesOfTheKernelThatRan) {
  // At X = 25 the int8 kernel runs every call on an AVX2 host; at X = 200
  // (above its int8 limit of 126) every call runs on the scalar kernel from
  // the start, so nothing restarts.
  const ReadSet rs = make_reads(0x1A4E5, 30);
  const auto tasks = make_tasks(rs, 0xD44);
  const dibella::io::ReadStore store(rs.reads, partition_of(rs.reads, 1), 0);
  const auto extend_args = [&](int xdrop) {
    AlignmentStageConfig cfg;
    cfg.k = kK;
    cfg.xdrop = xdrop;
    dibella::obs::Trace spans(1);
    run_stage(store, tasks, cfg, &spans);
    std::map<std::string, u64> args;
    for (const auto& ev : spans.lane(0).snapshot()) {
      if (ev.phase != dibella::obs::SpanEvent::Phase::kEnd ||
          std::string(ev.name) != "align:extend") {
        continue;
      }
      for (int a = 0; a < ev.n_args; ++a) args[ev.args[a].key] = ev.args[a].value;
    }
    return args;
  };
  const auto at25 = extend_args(25);
  EXPECT_EQ(at25.at("pairs"), tasks.size());
  EXPECT_EQ(at25.at("lanes"), dibella::align::detail::avx2_supported() ? 32u : 1u);
  const auto at200 = extend_args(200);
  EXPECT_EQ(at200.at("pairs"), tasks.size());
  EXPECT_EQ(at200.at("lanes"), 1u);
  EXPECT_EQ(at200.at("restarts"), 0u);
}
