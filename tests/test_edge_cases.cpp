// Edge cases and failure injection: degenerate inputs the pipeline must
// survive gracefully (empty read sets, reads shorter than k, N-rich reads,
// duplicates), and substrate failure modes (mismatched collectives must
// abort, not deadlock; rank exceptions must unwind the whole world).

#include <gtest/gtest.h>

#include <atomic>

#include "baseline/daligner_like.hpp"
#include "comm/communicator.hpp"
#include "comm/exchanger.hpp"
#include "comm/world.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "graph/overlap_graph.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

using dibella::u64;

namespace {

dibella::core::PipelineConfig lenient_config() {
  dibella::core::PipelineConfig cfg;
  cfg.assumed_error_rate = 0.12;
  cfg.assumed_coverage = 20.0;
  return cfg;
}

std::vector<dibella::io::Read> make_reads(const std::vector<std::string>& seqs) {
  std::vector<dibella::io::Read> reads;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    // std::string("r").append(...) sidesteps GCC 12's -Wrestrict false
    // positive (PR105329) on `const char* + std::string&&` at -O3.
    reads.push_back(dibella::io::Read{i, std::string("r").append(std::to_string(i)),
                                      seqs[i], std::string()});
  }
  return reads;
}

}  // namespace

TEST(EdgeCases, EmptyReadSet) {
  dibella::comm::World world(3);
  auto out = run_pipeline(world, {}, lenient_config());
  EXPECT_TRUE(out.merged_alignments().empty());
  EXPECT_EQ(out.counters.kmers_parsed, 0u);
  EXPECT_EQ(out.counters.read_pairs, 0u);
}

TEST(EdgeCases, AllReadsShorterThanK) {
  dibella::comm::World world(2);
  auto reads = make_reads({"ACGT", "TTTT", "ACGTACGTAC", "GG"});
  auto out = run_pipeline(world, reads, lenient_config());
  EXPECT_TRUE(out.merged_alignments().empty());
  EXPECT_EQ(out.counters.kmers_parsed, 0u);
}

TEST(EdgeCases, SingleRead) {
  dibella::comm::World world(4);
  dibella::util::Xoshiro256 rng(1);
  std::string seq(5000, 'A');
  for (auto& c : seq) c = "ACGT"[rng.uniform_below(4)];
  auto out = run_pipeline(world, make_reads({seq}), lenient_config());
  // A lone read can share k-mers only with itself; same-read pairs are
  // excluded, so no alignments.
  EXPECT_TRUE(out.merged_alignments().empty());
  EXPECT_GT(out.counters.kmers_parsed, 0u);
}

TEST(EdgeCases, DuplicateReadsAlignPerfectly) {
  dibella::util::Xoshiro256 rng(2);
  std::string seq(3000, 'A');
  for (auto& c : seq) c = "ACGT"[rng.uniform_below(4)];
  dibella::comm::World world(2);
  // Identical twins: every window is a shared k-mer with count 2.
  auto out = run_pipeline(world, make_reads({seq, seq}), lenient_config());
  const auto records = out.merged_alignments();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rid_a, 0u);
  EXPECT_EQ(records[0].rid_b, 1u);
  EXPECT_EQ(records[0].score, static_cast<dibella::i32>(seq.size()));
  EXPECT_EQ(records[0].a_begin, 0u);
  EXPECT_EQ(records[0].a_end, seq.size());
}

TEST(EdgeCases, ReadAndItsReverseComplement) {
  dibella::util::Xoshiro256 rng(3);
  std::string seq(2500, 'A');
  for (auto& c : seq) c = "ACGT"[rng.uniform_below(4)];
  dibella::comm::World world(2);
  auto out = run_pipeline(
      world, make_reads({seq, dibella::kmer::reverse_complement(seq)}),
      lenient_config());
  const auto records = out.merged_alignments();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].same_orientation, 0u);  // detected as RC overlap
  EXPECT_EQ(records[0].score, static_cast<dibella::i32>(seq.size()));
}

TEST(EdgeCases, NRichReadsParseAroundInvalidBases) {
  dibella::util::Xoshiro256 rng(4);
  std::string clean(2000, 'A');
  for (auto& c : clean) c = "ACGT"[rng.uniform_below(4)];
  // Pepper one copy with N blocks; the shared clean stretches still seed.
  std::string holey = clean;
  for (std::size_t i = 300; i < 320; ++i) holey[i] = 'N';
  for (std::size_t i = 1200; i < 1230; ++i) holey[i] = 'N';
  dibella::comm::World world(2);
  auto out = run_pipeline(world, make_reads({clean, holey}), lenient_config());
  const auto records = out.merged_alignments();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].score, 500);
}

TEST(EdgeCases, MoreRanksThanReads) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(81));
  sim.reads.resize(5);
  for (std::size_t i = 0; i < sim.reads.size(); ++i) sim.reads[i].gid = i;
  dibella::comm::World world(12);  // most ranks own zero reads
  auto out = run_pipeline(world, sim.reads, lenient_config());
  // Must complete; may or may not find overlaps among 5 reads.
  EXPECT_LE(out.counters.read_pairs, 10u);
}

TEST(EdgeCases, PafRejectsUnknownReads) {
  dibella::align::AlignmentRecord rec;
  rec.rid_a = 5;
  rec.rid_b = 9;
  std::ostringstream os;
  EXPECT_THROW(dibella::core::write_paf(os, {rec}, make_reads({"ACGT"})),
               dibella::Error);
}

TEST(EdgeCases, GraphFromEmptyAlignments) {
  auto g = dibella::graph::OverlapGraph::from_alignments({}, 10);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_components(), 10u);  // all isolated
  EXPECT_EQ(g.transitive_reduction(), 0u);
}

TEST(EdgeCases, BaselineSingleBlockOfOne) {
  dibella::util::Xoshiro256 rng(5);
  std::string seq(2000, 'A');
  for (auto& c : seq) c = "ACGT"[rng.uniform_below(4)];
  dibella::baseline::BaselineConfig cfg;
  cfg.block_reads = 1;  // every read its own block
  auto res = run_daligner_like(make_reads({seq, seq}), cfg);
  ASSERT_EQ(res.alignments.size(), 1u);
  EXPECT_EQ(res.alignments[0].score, static_cast<dibella::i32>(seq.size()));
}

// --- failure injection -------------------------------------------------------

TEST(FailureInjection, MismatchedCollectivesAbortInsteadOfDeadlocking) {
  // Rank 0 runs one empty exchange round; the others run two. Without the
  // timeout poison the others would wait for rank 0's second flush forever.
  dibella::comm::World world(3, /*timeout_seconds=*/1.5);
  try {
    world.run([&](dibella::comm::Communicator& comm) {
      const int rounds = comm.rank() == 0 ? 1 : 2;
      for (int i = 0; i < rounds; ++i) {
        dibella::comm::Exchanger ex(comm);
        ex.flush_async(/*done=*/true);
        ex.wait();
      }
    });
    FAIL() << "mismatched exchange counts must throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatched collective sequences"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureInjection, ExceptionDuringExchangeUnwindsAllRanks) {
  dibella::comm::World world(4, 30.0);
  std::atomic<int> unwound{0};
  EXPECT_THROW(world.run([&](dibella::comm::Communicator& comm) {
                 struct Guard {
                   std::atomic<int>& n;
                   ~Guard() { ++n; }
                 } guard{unwound};
                 const auto round = [&] {
                   dibella::comm::Exchanger ex(comm);
                   ex.flush_async(/*done=*/true);
                   ex.wait();
                 };
                 round();
                 if (comm.rank() == 1) throw dibella::Error("injected");
                 round();
                 round();
               }),
               dibella::Error);
  EXPECT_EQ(unwound.load(), 4);  // every rank's stack unwound
}

TEST(FailureInjection, PipelineConfigValidation) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test(83));
  dibella::comm::World world(2);
  auto cfg = lenient_config();
  cfg.k = 0;  // invalid k must surface as an error, not UB
  EXPECT_THROW(run_pipeline(world, sim.reads, cfg), dibella::Error);
  cfg = lenient_config();
  cfg.k = 200;  // beyond the compile-time k-mer capacity
  EXPECT_THROW(run_pipeline(world, sim.reads, cfg), dibella::Error);
}

TEST(FailureInjection, WorldRejectsNonPositiveRankCount) {
  EXPECT_THROW(dibella::comm::World(0), dibella::Error);
  EXPECT_THROW(dibella::comm::World(-3), dibella::Error);
}
