// Out-of-core block pipeline tests: 2-bit packed read blocks, the block
// manifest (block_of / block_lower), block-mode ReadStore residency and
// eviction, spill lifecycle, and the tentpole contract — `--blocks={2,4}`
// output byte-identical to `--blocks=1` across rank counts and both
// communication schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "eval/report.hpp"
#include "io/read_block.hpp"
#include "io/read_store.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

namespace dc = dibella::core;
namespace dio = dibella::io;
namespace fs = std::filesystem;
using dibella::u32;
using dibella::u64;

namespace {

/// Reads with awkward content: empty sequences, N's, lowercase soft-masking,
/// and quality strings — everything the exception list must round-trip.
std::vector<dio::Read> awkward_reads(u64 first_gid = 0) {
  std::vector<dio::Read> reads;
  auto add = [&](std::string seq, std::string qual) {
    dio::Read r;
    r.gid = first_gid + reads.size();
    r.name = "r" + std::to_string(r.gid);
    r.seq = std::move(seq);
    r.qual = std::move(qual);
    reads.push_back(std::move(r));
  };
  add("ACGTACGTACGT", "IIIIIIIIIIII");
  add("", "");  // empty read
  add("NNNNN", "!!!!!");
  add("acgtACGTnN", "");  // soft-masked + N, no qual
  add("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT", std::string(33, '#'));  // odd length
  add("AXG*?z", "012345");  // arbitrary non-base characters
  return reads;
}

std::vector<dio::Read> random_reads(int n, u64 seed, u64 first_gid = 0) {
  dibella::util::Xoshiro256 rng(seed);
  std::vector<dio::Read> reads;
  for (int i = 0; i < n; ++i) {
    dio::Read r;
    r.gid = first_gid + static_cast<u64>(i);
    r.name = "read" + std::to_string(r.gid);
    std::size_t len = 50 + rng.uniform_below(150);
    r.seq.resize(len);
    for (auto& c : r.seq) c = "ACGTN"[rng.uniform_below(5)];
    r.qual.assign(len, static_cast<char>('!' + rng.uniform_below(40)));
    reads.push_back(std::move(r));
  }
  return reads;
}

void expect_read_eq(const dio::Read& got, const dio::Read& want) {
  EXPECT_EQ(got.gid, want.gid);
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.qual, want.qual);
}

dc::PipelineConfig full_config() {
  dc::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = 0.12;  // matches tiny_test preset
  cfg.assumed_coverage = 20.0;
  cfg.batch_kmers = 50'000;
  cfg.stage5 = true;
  cfg.eval = true;
  cfg.eval_min_overlap = 500;
  return cfg;
}

struct RunArtifacts {
  std::string paf, gfa, eval_tsv;
};

/// Serialize everything the driver writes to disk for one run, via the same
/// streaming paths the driver uses.
RunArtifacts artifacts(const dc::PipelineOutput& out,
                       const std::vector<dio::Read>& reads, u32 fuzz) {
  RunArtifacts a;
  std::ostringstream paf, gfa, ev;
  auto source = out.alignment_source();
  dc::write_paf(paf, *source, reads, fuzz);
  dibella::sgraph::write_gfa(gfa, out.string_graph.surviving_edges, reads);
  dibella::eval::write_eval_tsv(ev, out.eval);
  a.paf = paf.str();
  a.gfa = gfa.str();
  a.eval_tsv = ev.str();
  return a;
}

}  // namespace

// --- PackedReadBlock ---------------------------------------------------------

TEST(PackedReadBlock, RoundTripAwkwardContent) {
  auto reads = awkward_reads(7);
  auto block = dio::PackedReadBlock::pack(reads.data(), reads.size());
  EXPECT_EQ(block.first_gid(), 7u);
  ASSERT_EQ(block.size(), reads.size());

  auto unpacked = block.unpack();
  ASSERT_EQ(unpacked.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    expect_read_eq(unpacked[i], reads[i]);
    expect_read_eq(block.unpack_one(i), reads[i]);
    EXPECT_EQ(block.seq_length(i), reads[i].seq.size());
  }
}

TEST(PackedReadBlock, RoundTripRandomReads) {
  auto reads = random_reads(200, /*seed=*/11, /*first_gid=*/1000);
  auto block = dio::PackedReadBlock::pack(reads.data(), reads.size());
  auto unpacked = block.unpack();
  ASSERT_EQ(unpacked.size(), reads.size());
  u64 bases = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    expect_read_eq(unpacked[i], reads[i]);
    bases += reads[i].seq.size();
  }
  EXPECT_EQ(block.total_bases(), bases);
  EXPECT_EQ(block.unpacked_seq_bytes(), bases);
}

TEST(PackedReadBlock, EmptyBlock) {
  auto block = dio::PackedReadBlock::pack(nullptr, 0);
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.size(), 0u);
  EXPECT_EQ(block.total_bases(), 0u);
  EXPECT_TRUE(block.unpack().empty());
}

TEST(PackedReadBlock, PureAcgtPacksFourBasesPerByte) {
  std::vector<dio::Read> reads;
  dio::Read r;
  r.gid = 0;
  r.name = "r0";
  r.seq = std::string(4000, 'A');
  for (std::size_t i = 0; i < r.seq.size(); ++i) r.seq[i] = "ACGT"[i % 4];
  reads.push_back(r);
  auto block = dio::PackedReadBlock::pack(reads.data(), 1);
  // Sequence payload is bases/4; the rest is offsets + name. Well under the
  // unpacked size, and with zero exceptions.
  EXPECT_LT(block.packed_bytes(), 1100u);
  EXPECT_EQ(block.unpack()[0].seq, reads[0].seq);
}

// --- block manifest ----------------------------------------------------------

TEST(BlockManifest, BlockLowerPartitionsTheRange) {
  for (u64 count : {0ull, 1ull, 2ull, 7ull, 100ull, 101ull}) {
    for (u32 blocks : {1u, 2u, 3u, 4u, 8u, 13u}) {
      EXPECT_EQ(dio::block_lower(count, blocks, 0), 0u);
      EXPECT_EQ(dio::block_lower(count, blocks, blocks), count);
      for (u32 b = 0; b < blocks; ++b) {
        EXPECT_LE(dio::block_lower(count, blocks, b),
                  dio::block_lower(count, blocks, b + 1));
      }
    }
  }
}

TEST(BlockManifest, BlockOfAgreesWithBlockLower) {
  // Every gid must land in the block whose [lower(b), lower(b+1)) range
  // contains its owner-local offset — including when blocks outnumber the
  // rank's reads (some blocks empty).
  auto reads = random_reads(97, /*seed=*/5);
  std::vector<u64> lengths;
  for (const auto& r : reads) lengths.push_back(r.seq.size());
  for (int ranks : {1, 3, 5}) {
    dio::ReadPartition part(lengths, ranks);
    for (u32 blocks : {1u, 2u, 4u, 7u, 64u}) {
      for (u64 gid = 0; gid < reads.size(); ++gid) {
        const int owner = part.owner_of(gid);
        const u64 offset = gid - part.first_gid(owner);
        const u32 b = dio::block_of(part, blocks, gid);
        ASSERT_LT(b, blocks);
        EXPECT_LE(dio::block_lower(part.count(owner), blocks, b), offset);
        EXPECT_LT(offset, dio::block_lower(part.count(owner), blocks, b + 1))
            << "gid=" << gid << " ranks=" << ranks << " blocks=" << blocks;
      }
    }
  }
}

// --- block-mode ReadStore ----------------------------------------------------

TEST(BlockReadStore, LocalReadsMatchInMemoryPath) {
  auto reads = random_reads(80, /*seed=*/21);
  std::vector<u64> lengths;
  for (const auto& r : reads) lengths.push_back(r.seq.size());
  dio::ReadPartition part(lengths, 3);

  for (int rank = 0; rank < 3; ++rank) {
    dio::ReadStore plain(reads, part, rank);
    dio::ReadStore blocked(reads, part, rank, dio::BlockConfig{4, 0});
    EXPECT_EQ(blocked.blocks(), 4u);
    for (u64 gid = part.first_gid(rank); gid < part.first_gid(rank) + part.count(rank);
         ++gid) {
      expect_read_eq(blocked.local_read(gid), plain.local_read(gid));
      EXPECT_EQ(blocked.local_length(gid), plain.local_read(gid).seq.size());
    }
  }
}

TEST(BlockReadStore, LazyLoadAndTelemetry) {
  auto reads = random_reads(64, /*seed=*/22);
  std::vector<u64> lengths;
  for (const auto& r : reads) lengths.push_back(r.seq.size());
  dio::ReadPartition part(lengths, 1);
  dio::ReadStore store(reads, part, 0, dio::BlockConfig{4, 0});

  auto before = store.memory_stats();
  EXPECT_GT(before.packed_bytes, 0u);
  EXPECT_EQ(before.resident_bytes, 0u);   // nothing unpacked yet
  EXPECT_EQ(before.block_loads, 0u);

  (void)store.local_read(0);  // touches block 0 only
  auto after_one = store.memory_stats();
  EXPECT_EQ(after_one.block_loads, 1u);
  EXPECT_GT(after_one.resident_bytes, 0u);
  EXPECT_EQ(after_one.peak_resident_bytes, after_one.resident_bytes);

  // Lengths never unpack anything.
  for (u64 gid = 0; gid < reads.size(); ++gid) {
    EXPECT_EQ(store.local_length(gid), reads[gid].seq.size());
  }
  EXPECT_EQ(store.memory_stats().block_loads, 1u);

  // A full sweep loads the rest exactly once each (no budget, no evictions).
  for (u64 gid = 0; gid < reads.size(); ++gid) (void)store.local_read(gid);
  auto after_all = store.memory_stats();
  EXPECT_EQ(after_all.block_loads, 4u);
  EXPECT_EQ(after_all.block_evictions, 0u);
  EXPECT_EQ(after_all.peak_resident_bytes, after_all.resident_bytes);
}

TEST(BlockReadStore, BudgetEvictsButKeepsTwoResident) {
  auto reads = random_reads(64, /*seed=*/23);
  std::vector<u64> lengths;
  for (const auto& r : reads) lengths.push_back(r.seq.size());
  dio::ReadPartition part(lengths, 1);
  // A 1-byte budget forces eviction on every load — down to the floor of
  // two resident blocks that keeps simultaneously-held a/b references valid.
  dio::ReadStore store(reads, part, 0, dio::BlockConfig{8, 1});

  for (u64 gid = 0; gid < reads.size(); ++gid) {
    const dio::Read& r = store.local_read(gid);
    EXPECT_EQ(r.seq, reads[gid].seq);  // reference valid right after load
  }
  auto stats = store.memory_stats();
  EXPECT_EQ(stats.block_loads, 8u);
  EXPECT_EQ(stats.block_evictions, 6u);  // 8 loaded, floor of 2 kept
  EXPECT_LT(stats.resident_bytes, stats.peak_resident_bytes);

  // Re-touching an evicted block reloads it.
  (void)store.local_read(0);
  EXPECT_EQ(store.memory_stats().block_loads, 9u);
}

TEST(BlockReadStore, HeldPairSurvivesInterleavedLoads) {
  auto reads = random_reads(60, /*seed=*/24);
  std::vector<u64> lengths;
  for (const auto& r : reads) lengths.push_back(r.seq.size());
  dio::ReadPartition part(lengths, 1);
  dio::ReadStore store(reads, part, 0, dio::BlockConfig{6, 1});

  // The alignment inner loop holds references to two reads at once; the
  // two most recently touched blocks are never the eviction victim.
  for (u64 a = 0; a < reads.size(); a += 17) {
    for (u64 b = 0; b < reads.size(); b += 13) {
      const dio::Read& ra = store.local_read(a);
      const dio::Read& rb = store.local_read(b);
      EXPECT_EQ(ra.seq, reads[a].seq);
      EXPECT_EQ(rb.seq, reads[b].seq);
    }
  }
}

// --- the tentpole contract: block count never changes the output -------------

TEST(Blocks, OutputBytewiseIdenticalAcrossBlocksRanksAndSchedules) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(3));
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  auto cfg = full_config();

  dibella::comm::World w3(3);
  auto base_out = run_pipeline(w3, sim.reads, cfg, truth);
  ASSERT_TRUE(base_out.eval_ran);
  auto base = artifacts(base_out, sim.reads, cfg.sgraph_fuzz);
  ASSERT_FALSE(base.paf.empty());
  ASSERT_FALSE(base.gfa.empty());
  ASSERT_FALSE(base.eval_tsv.empty());

  for (u32 blocks : {2u, 4u}) {
    for (int ranks : {1, 2, 3, 5}) {
      for (bool overlap_comm : {true, false}) {
        auto c = cfg;
        c.blocks = blocks;
        c.memory_budget_bytes = 64u << 20;
        c.overlap_comm = overlap_comm;
        dibella::comm::World world(ranks);
        auto out = run_pipeline(world, sim.reads, c, truth);
        ASSERT_TRUE(out.eval_ran);
        ASSERT_NE(out.spill, nullptr);
        auto got = artifacts(out, sim.reads, c.sgraph_fuzz);
        const char* where = overlap_comm ? "overlapped" : "blocking";
        EXPECT_EQ(got.paf, base.paf)
            << "PAF diverged: blocks=" << blocks << " ranks=" << ranks << " " << where;
        EXPECT_EQ(got.gfa, base.gfa)
            << "GFA diverged: blocks=" << blocks << " ranks=" << ranks << " " << where;
        EXPECT_EQ(got.eval_tsv, base.eval_tsv)
            << "eval.tsv diverged: blocks=" << blocks << " ranks=" << ranks << " "
            << where;
      }
    }
  }
}

TEST(Blocks, MinimizerModeOutputBytewiseIdenticalAcrossGrid) {
  // The same pinning grid with the sketch layer on: at a fixed density the
  // sampled seeding is a pure per-read function, so block counts, rank
  // counts, and schedules still cannot move a byte of PAF/GFA/eval output.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(3));
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  auto cfg = full_config();
  cfg.minimizer_w = 10;

  dibella::comm::World w3(3);
  auto base_out = run_pipeline(w3, sim.reads, cfg, truth);
  ASSERT_TRUE(base_out.eval_ran);
  auto base = artifacts(base_out, sim.reads, cfg.sgraph_fuzz);
  ASSERT_FALSE(base.paf.empty());

  for (u32 blocks : {2u, 4u}) {
    for (int ranks : {1, 3, 5}) {
      for (bool overlap_comm : {true, false}) {
        auto c = cfg;
        c.blocks = blocks;
        c.memory_budget_bytes = 64u << 20;
        c.overlap_comm = overlap_comm;
        dibella::comm::World world(ranks);
        auto out = run_pipeline(world, sim.reads, c, truth);
        ASSERT_TRUE(out.eval_ran);
        auto got = artifacts(out, sim.reads, c.sgraph_fuzz);
        const char* where = overlap_comm ? "overlapped" : "blocking";
        EXPECT_EQ(got.paf, base.paf)
            << "PAF diverged: blocks=" << blocks << " ranks=" << ranks << " " << where;
        EXPECT_EQ(got.gfa, base.gfa)
            << "GFA diverged: blocks=" << blocks << " ranks=" << ranks << " " << where;
        EXPECT_EQ(got.eval_tsv, base.eval_tsv)
            << "eval.tsv diverged: blocks=" << blocks << " ranks=" << ranks << " "
            << where;
      }
    }
  }
}

TEST(WorkerPool, OutputsIdenticalAcrossRanksSchedulesAndResume) {
  // With one block, stages 1, 2 and 4 run available_cpus() / ranks threads
  // per rank (on 4 CPUs: 4, 2, 1, 1 at ranks 1, 2, 3, 5). PAF, GFA and
  // eval.tsv are byte-identical over ranks {1,2,3,5} x both schedules and
  // over a resume from the stage-1 or stage-2 checkpoint. counters.tsv is
  // byte-identical across schedules at each rank count, and equal across
  // rank counts except the rows that count per-partition work. The stage
  // configs' `workers` are pinned directly in test_dht and
  // test_alignment_stage.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(3));
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  auto cfg = full_config();
  cfg.minimizer_w = 10;
  cfg.batch_kmers = 4'000;  // several stage-1/2 batches per rank
  const std::vector<std::string> per_partition = {
      "candidate_keys", "purged_keys", "ranks", "read_bytes_exchanged",
      "reads_exchanged", "spill_runs"};
  struct Outputs {
    RunArtifacts files;
    std::string counters;
  };
  const auto outputs = [&](const dc::PipelineOutput& out) {
    std::ostringstream counters;
    out.write_counters_tsv(counters);
    return Outputs{artifacts(out, sim.reads, cfg.sgraph_fuzz), counters.str()};
  };
  const auto comparable_counters = [&](const std::string& tsv) {
    std::string kept;
    std::istringstream in(tsv);
    for (std::string line; std::getline(in, line);) {
      const std::string name = line.substr(0, line.find('\t'));
      if (std::find(per_partition.begin(), per_partition.end(), name) ==
          per_partition.end()) {
        kept += line + "\n";
      }
    }
    return kept;
  };

  dibella::comm::World w1(1);
  const Outputs base = outputs(run_pipeline(w1, sim.reads, cfg, truth));
  ASSERT_FALSE(base.files.paf.empty());
  ASSERT_FALSE(base.files.gfa.empty());
  for (int ranks : {1, 2, 3, 5}) {
    std::string rank_counters;
    for (bool overlap_comm : {true, false}) {
      const std::string where = "ranks=" + std::to_string(ranks) +
                                (overlap_comm ? " overlapped" : " bulk-synchronous");
      auto c = cfg;
      c.overlap_comm = overlap_comm;
      dibella::comm::World world(ranks);
      const Outputs got = outputs(run_pipeline(world, sim.reads, c, truth));
      EXPECT_EQ(got.files.paf, base.files.paf) << where;
      EXPECT_EQ(got.files.gfa, base.files.gfa) << where;
      EXPECT_EQ(got.files.eval_tsv, base.files.eval_tsv) << where;
      EXPECT_EQ(comparable_counters(got.counters), comparable_counters(base.counters))
          << where;
      if (rank_counters.empty()) rank_counters = got.counters;
      EXPECT_EQ(got.counters, rank_counters) << where;
    }
  }

  // Abort in stage 2 (stage 1 checkpointed) or stage 3 (stages 1-2
  // checkpointed) on one rank, which runs the most workers, and resume.
  const fs::path dir = fs::path(::testing::TempDir()) / "dibella_worker_pool_resume";
  int cell = 0;
  for (const char* fault : {"abort@ht:0:0", "abort@overlap:0:0"}) {
    SCOPED_TRACE(fault);
    const fs::path ckpt = dir / std::to_string(cell++);
    fs::remove_all(ckpt);
    auto c = cfg;
    c.checkpoint_dir = ckpt.string();
    dibella::comm::World aborted(1);
    aborted.set_fault_plan(dibella::comm::FaultPlan::parse(fault));
    EXPECT_ANY_THROW(run_pipeline(aborted, sim.reads, c, truth));
    c.resume = true;
    dibella::comm::World resumed(1);
    const Outputs got = outputs(run_pipeline(resumed, sim.reads, c, truth));
    EXPECT_EQ(got.files.paf, base.files.paf);
    EXPECT_EQ(got.files.gfa, base.files.gfa);
    EXPECT_EQ(got.files.eval_tsv, base.files.eval_tsv);
  }
  fs::remove_all(dir);
}

TEST(Blocks, MergedAlignmentsMatchInMemoryVector) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(9));
  auto cfg = full_config();
  cfg.eval = false;  // no truth table attached in this test
  // Every seed survives the filter, so chaining has seeds to drop and the
  // chain counters are nonzero (they must sum across block rounds too).
  cfg.seed_filter = dibella::overlap::SeedFilterConfig::all_seeds(cfg.k);
  dibella::comm::World world(3);

  auto in_mem = run_pipeline(world, sim.reads, cfg);
  auto c = cfg;
  c.blocks = 4;
  auto blocked = run_pipeline(world, sim.reads, c);

  const auto merged = blocked.merged_alignments();
  const auto want_records = in_mem.merged_alignments();
  ASSERT_EQ(merged.size(), want_records.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const auto& x = merged[i];
    const auto& y = want_records[i];
    EXPECT_EQ(x.rid_a, y.rid_a);
    EXPECT_EQ(x.rid_b, y.rid_b);
    EXPECT_EQ(x.score, y.score);
    EXPECT_EQ(x.a_begin, y.a_begin);
    EXPECT_EQ(x.a_end, y.a_end);
    EXPECT_EQ(x.b_begin, y.b_begin);
    EXPECT_EQ(x.b_end, y.b_end);
    EXPECT_EQ(x.same_orientation, y.same_orientation);
  }
  // Every block count spills every record exactly once.
  for (const dc::PipelineOutput* out : {&in_mem, &blocked}) {
    EXPECT_GT(out->counters.spill_runs, 0u);
    EXPECT_EQ(out->counters.spill_bytes,
              out->counters.alignments_reported * sizeof(dibella::align::AlignmentRecord));
  }
  EXPECT_GT(blocked.counters.packed_read_bytes, 0u);
  EXPECT_GT(blocked.counters.block_loads, 0u);
  EXPECT_EQ(in_mem.counters.packed_read_bytes, 0u);
  // Both paths report peak residency; packing shrinks it.
  EXPECT_GT(in_mem.counters.peak_resident_read_bytes, 0u);
  EXPECT_GT(blocked.counters.peak_resident_read_bytes, 0u);
  EXPECT_LT(blocked.counters.peak_resident_read_bytes,
            in_mem.counters.peak_resident_read_bytes);

  // Every other counters.tsv row, spill_bytes included, is a per-round sum
  // that block mode must reproduce exactly.
  EXPECT_GT(in_mem.counters.chain_anchors, 0u);
  EXPECT_GT(in_mem.counters.chain_dropped_seeds, 0u);
  const auto comparable_rows = [](const dc::PipelineOutput& out) {
    std::ostringstream tsv;
    out.write_counters_tsv(tsv);
    std::istringstream lines(tsv.str());
    std::map<std::string, std::string> rows;
    std::string line;
    while (std::getline(lines, line)) {
      const auto tab = line.find('\t');
      if (line.empty() || line[0] == '#' || tab == std::string::npos) continue;
      const std::string name = line.substr(0, tab);
      if (name == "block_loads" || name == "packed_read_bytes" ||
          name == "peak_resident_read_bytes" || name == "spill_runs") {
        continue;  // memory telemetry and the round count, checked above
      }
      rows[name] = line.substr(tab + 1);
    }
    return rows;
  };
  const auto want = comparable_rows(in_mem);
  const auto got = comparable_rows(blocked);
  ASSERT_GT(want.size(), 30u);
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    EXPECT_EQ(it->second, value) << "counters.tsv row " << name;
  }
  EXPECT_EQ(got.size(), want.size());
}

TEST(Blocks, SpillDirectoryRemovedWithOutput) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(13));
  auto cfg = full_config();
  cfg.eval = false;
  cfg.blocks = 2;
  fs::path dir;
  {
    dibella::comm::World world(2);
    auto out = run_pipeline(world, sim.reads, cfg);
    ASSERT_NE(out.spill, nullptr);
    dir = out.spill->dir();
    EXPECT_TRUE(fs::exists(dir));
    EXPECT_GT(out.spill->run_count(), 0u);
    // Deterministic run names: align.r<rank>.<index>.bin under the run dir.
    for (const auto& run : out.spill->all_runs()) {
      EXPECT_EQ(fs::path(run).parent_path(), dir);
      EXPECT_EQ(fs::path(run).filename().string().rfind("align.r", 0), 0u);
    }
  }
  EXPECT_FALSE(fs::exists(dir)) << "spill dir leaked: " << dir;
}
