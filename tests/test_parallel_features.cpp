// Tests for parallel FASTQ ingestion with cooperative reassembly.

#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "io/fastx.hpp"
#include "io/parallel_load.hpp"
#include "io/read_store.hpp"
#include "simgen/presets.hpp"

using dibella::u64;

namespace {

struct Fixture {
  std::vector<dibella::io::Read> reads;
  dibella::io::ReadPartition partition;
  Fixture(u64 seed, int P) {
    auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(seed));
    reads = std::move(sim.reads);
    std::vector<u64> lens;
    for (auto& r : reads) lens.push_back(r.seq.size());
    partition = dibella::io::ReadPartition(lens, P);
  }
};

}  // namespace

TEST(ParallelLoad, MatchesSerialParse) {
  Fixture fx(71, 1);
  std::string fastq = dibella::io::to_fastq(fx.reads);
  auto serial = dibella::io::parse_fastq(fastq);

  for (int P : {1, 3, 5}) {
    dibella::comm::World world(P);
    std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
    std::vector<std::vector<dibella::io::Read>> results(static_cast<std::size_t>(P));
    world.run([&](dibella::comm::Communicator& comm) {
      dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
      ctx.attach();
      results[static_cast<std::size_t>(comm.rank())] =
          dibella::io::load_fastq_parallel(ctx, fastq);
    });
    for (int r = 0; r < P; ++r) {
      const auto& got = results[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), serial.size()) << "P=" << P << " rank=" << r;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].gid, i);
        EXPECT_EQ(got[i].name, serial[i].name);
        EXPECT_EQ(got[i].seq, serial[i].seq);
        EXPECT_EQ(got[i].qual, serial[i].qual);
      }
    }
  }
}

TEST(ParallelLoad, DroppedChunkIsRetransmitted) {
  // The loader's records travel the framed exchange, so a dropped chunk is
  // replayed and the load equals the fault-free one.
  Fixture fx(71, 1);
  const std::string fastq = dibella::io::to_fastq(fx.reads);
  const int P = 3;
  auto load = [&](dibella::comm::World& world) {
    std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
    std::vector<std::vector<dibella::io::Read>> results(static_cast<std::size_t>(P));
    world.run([&](dibella::comm::Communicator& comm) {
      dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
      ctx.attach();
      results[static_cast<std::size_t>(comm.rank())] =
          dibella::io::load_fastq_parallel(ctx, fastq);
    });
    return results;
  };
  dibella::comm::World clean(P);
  const auto want = load(clean);
  EXPECT_EQ(clean.comm_fault_stats().retries, 0u);

  dibella::comm::World faulty(P);
  faulty.set_fault_plan(std::make_shared<const dibella::comm::FaultPlan>(
      std::vector<dibella::comm::FaultSpec>{{dibella::comm::FaultKind::kDrop, "io", 0, 0}}));
  const auto got = load(faulty);
  EXPECT_GE(faulty.comm_fault_stats().retries, 1u);
  for (int r = 0; r < P; ++r) {
    const auto& a = want[static_cast<std::size_t>(r)];
    const auto& b = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    ASSERT_EQ(a.size(), fx.reads.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].gid, b[i].gid);
      EXPECT_EQ(a[i].name, b[i].name);
      EXPECT_EQ(a[i].seq, b[i].seq);
      EXPECT_EQ(a[i].qual, b[i].qual);
    }
  }
}

TEST(ParallelLoad, FeedsPipelineEndToEnd) {
  // FASTQ text -> parallel ingest -> full pipeline; equals the in-memory path.
  Fixture fx(73, 1);
  std::string fastq = dibella::io::to_fastq(fx.reads);
  dibella::core::PipelineConfig cfg;
  cfg.assumed_error_rate = 0.12;
  cfg.assumed_coverage = 20.0;

  const int P = 4;
  dibella::comm::World world(P);
  std::vector<dibella::netsim::RankTrace> traces(static_cast<std::size_t>(P));
  std::vector<dibella::io::Read> loaded;
  world.run([&](dibella::comm::Communicator& comm) {
    dibella::core::StageContext ctx{comm, traces[static_cast<std::size_t>(comm.rank())]};
    ctx.attach();
    auto reads = dibella::io::load_fastq_parallel(ctx, fastq);
    if (comm.rank() == 0) loaded = std::move(reads);
  });
  auto out_loaded = run_pipeline(world, loaded, cfg);
  const auto out_loaded_records = out_loaded.merged_alignments();
  auto out_direct = run_pipeline(world, fx.reads, cfg);
  const auto out_direct_records = out_direct.merged_alignments();
  ASSERT_EQ(out_loaded_records.size(), out_direct_records.size());
  for (std::size_t i = 0; i < out_loaded_records.size(); ++i) {
    EXPECT_EQ(out_loaded_records[i].score, out_direct_records[i].score);
  }
}
