// Ground-truth evaluation subsystem (src/eval/ + io/truth.hpp): truth-table
// serialization and its round trip through io::ReadStore, the overlap oracle
// and recall/precision scoring on a hand-built fixture, unitig-fidelity
// scoring (strand, circular, and misjoin cases), and the acceptance pin:
// the whole eval report is byte-identical across rank counts {1,2,3,5} and
// both communication schedules.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "align/alignment_stage.hpp"
#include "comm/world.hpp"
#include "core/pipeline.hpp"
#include "eval/overlap_truth.hpp"
#include "eval/report.hpp"
#include "eval/unitig_fidelity.hpp"
#include "io/read_store.hpp"
#include "io/truth.hpp"
#include "mutation.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"
#include "simgen/read_sim.hpp"
#include "util/stats.hpp"

using dibella::u32;
using dibella::u64;
namespace de = dibella::eval;
namespace dio = dibella::io;

namespace {

/// Hand-built 6-read truth on one 10 kbp genome. True pairs at min overlap
/// 500: (0,1)=1000, (0,5)=1800, (1,2)=500, (1,5)=900, (3,4)=1000. Read 5 is
/// contained in read 0; (2,3) overlap 100 is sub-threshold.
dio::TruthTable fixture_table() {
  dio::TruthTable t;
  t.set_genome_length(0, 10'000);
  t.add({0, 0, 2000, false});     // r0
  t.add({0, 1000, 3000, false});  // r1
  t.add({0, 2500, 4500, true});   // r2 (reverse strand)
  t.add({0, 4400, 6400, false});  // r3
  t.add({0, 5400, 8400, false});  // r4
  t.add({0, 100, 1900, true});    // r5, contained in r0
  return t;
}

dibella::align::AlignmentRecord rec(u64 a, u64 b) {
  dibella::align::AlignmentRecord r;
  r.rid_a = a;
  r.rid_b = b;
  r.score = 100;
  return r;
}

dibella::sgraph::Unitig chain(std::vector<u64> reads, bool circular = false) {
  dibella::sgraph::Unitig u;
  u.reads = std::move(reads);
  u.circular = circular;
  return u;
}

}  // namespace

// --- truth table serialization ------------------------------------------------

TEST(TruthTable, TsvRoundTrip) {
  dio::TruthTable t = fixture_table();
  std::string tsv = t.to_tsv();
  dio::TruthTable back = dio::TruthTable::parse_tsv(tsv);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.to_tsv(), tsv);  // serialization is a fixed point
  EXPECT_EQ(back.genome_length(0), 10'000u);
  EXPECT_TRUE(back.entry(2).rc);   // strand survives the trip
  EXPECT_FALSE(back.entry(3).rc);
}

TEST(TruthTable, FileRoundTripThroughLoader) {
  std::string path = ::testing::TempDir() + "/dibella_truth_roundtrip.tsv";
  dio::TruthTable t = fixture_table();
  t.save_tsv(path);
  EXPECT_EQ(dio::TruthTable::load_tsv(path), t);
}

TEST(TruthTable, GenomeLengthsInferredWhenAbsent) {
  // A hand-made sidecar without #genome lines still evaluates: lengths fall
  // back to each genome's maximum interval end.
  dio::TruthTable parsed = dio::TruthTable::parse_tsv(
      "gid\tgenome\tstart\tend\tstrand\n"
      "0\t0\t0\t700\t+\n"
      "1\t1\t50\t950\t-\n");
  ASSERT_EQ(parsed.genome_count(), 2u);
  EXPECT_EQ(parsed.genome_length(0), 700u);
  EXPECT_EQ(parsed.genome_length(1), 950u);
}

TEST(TruthTable, MalformedInputsThrow) {
  using dibella::Error;
  EXPECT_THROW(dio::TruthTable::parse_tsv(""), Error);  // no header
  EXPECT_THROW(dio::TruthTable::parse_tsv("gid\tstart\tend\tstrand\n"), Error);
  const std::string header = "gid\tgenome\tstart\tend\tstrand\n";
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t0\t10\t5\t+\n"), Error);
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t0\t0\t5\t?\n"), Error);
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "1\t0\t0\t5\t+\n"), Error);
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t0\tzero\t5\t+\n"), Error);
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t0\t0\n"), Error);
  // strtoull would silently wrap "-1" to 2^64-1 and skip leading spaces;
  // both must be rejected, not absorbed.
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t0\t0\t-1\t+\n"), Error);
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t0\t 5\t9\t+\n"), Error);
  EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t0\t+5\t9\t+\n"), Error);
  // An interval overshooting an *explicitly declared* genome length is an
  // inconsistency (stale header / typo), not a length-inference fallback.
  EXPECT_THROW(dio::TruthTable::parse_tsv("#genome\t0\t1000\n" + header +
                                          "0\t0\t0\t5000\t+\n"),
               Error);
}

TEST(TruthTable, GenomeIdPastU32IsRejected) {
  // TruthEntry::genome_id is a u32: 2^32 must not narrow to genome 0.
  const std::string header = "gid\tgenome\tstart\tend\tstrand\n";
  try {
    (void)dio::TruthTable::parse_tsv(header + "0\t4294967296\t0\t100\t+\n");
    ADD_FAILURE() << "a genome id of 2^32 must throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("genome id 4294967296 out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(TruthTable, GenomeIdsAreBoundedByTheInputSize) {
  // A genome id sizes the genome-length table, so ids at or past the input's
  // byte count are rejected before anything is allocated from them: one
  // line cannot ask for gigabytes, and 2^64-1 cannot overflow `id + 1`.
  using dibella::Error;
  const std::string header = "gid\tgenome\tstart\tend\tstrand\n";
  for (const char* id : {"268435456", "4294967295", "18446744073709551615"}) {
    SCOPED_TRACE(id);
    EXPECT_THROW(dio::TruthTable::parse_tsv(header + "0\t" + id + "\t0\t100\t+\n"), Error);
    EXPECT_THROW(dio::TruthTable::parse_tsv("#genome\t" + std::string(id) + "\t1\n" + header),
                 Error);
  }
  // The bound is exact: a two-digit id equal to the input's size fails,
  // one below it parses.
  auto with_id = [&](const std::string& id) { return header + "0\t" + id + "\t0\t100\t+\n"; };
  const std::size_t bytes = with_id("00").size();
  ASSERT_EQ(std::to_string(bytes).size(), 2u);
  EXPECT_THROW(dio::TruthTable::parse_tsv(with_id(std::to_string(bytes))), Error);
  EXPECT_EQ(dio::TruthTable::parse_tsv(with_id(std::to_string(bytes - 1))).genome_count(), bytes);
  // An id below the bound sizes the table; unused genomes get length 0.
  dio::TruthTable parsed = dio::TruthTable::parse_tsv(header + "0\t3\t0\t100\t+\n");
  EXPECT_EQ(parsed.genome_count(), 4u);
  EXPECT_EQ(parsed.genome_length(3), 100u);
}

TEST(TruthTable, SeededMutationsEndInErrorOrAValidParse) {
  // Truncate, flip and splice a sidecar. Each mutant either parses into a
  // consistent table no larger than its input or throws dibella::Error.
  dibella::util::Xoshiro256 rng(3141);
  dio::TruthTable other;
  other.set_genome_length(1, 5'000);
  other.add({1, 10, 900, true});
  other.add({0, 2'000, 2'500, false});
  const std::string splice = other.to_tsv();
  for (const std::string& text : {fixture_table().to_tsv(), splice}) {
    for (const std::string& m : dibella::test::seeded_mutants(text, splice, rng, 256, 64)) {
      dio::TruthTable t;
      try {
        t = dio::TruthTable::parse_tsv(m);
      } catch (const dibella::Error&) {
        continue;
      }
      EXPECT_LE(t.size(), m.size());
      EXPECT_LE(t.genome_count(), m.size());
      for (const auto& e : t.entries()) {
        EXPECT_LE(e.lo, e.hi);
        ASSERT_LT(e.genome_id, t.genome_count());
        EXPECT_LE(e.hi, t.genome_length(e.genome_id));
      }
    }
  }
}

// --- provenance through the read store ---------------------------------------

TEST(TruthThroughReadStore, EveryRankSeesTheWholeTable) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto table =
      std::make_shared<const dio::TruthTable>(dibella::simgen::truth_table(sim));
  ASSERT_EQ(table->size(), sim.reads.size());

  std::vector<u64> lens;
  for (const auto& r : sim.reads) lens.push_back(r.seq.size());
  dio::ReadPartition part(lens, 3);
  for (int rank = 0; rank < 3; ++rank) {
    dio::ReadStore store(sim.reads, part, rank);
    EXPECT_EQ(store.truth(), nullptr);  // provenance is opt-in
    store.attach_truth(table);
    ASSERT_NE(store.truth(), nullptr);
    EXPECT_EQ(store.truth()->size(), sim.reads.size());
    // The table covers the whole gid space, not just this rank's block.
    for (u64 gid : {u64{0}, sim.reads.size() / 2, sim.reads.size() - 1}) {
      const auto& e = store.truth()->entry(gid);
      EXPECT_EQ(e.lo, sim.truth[static_cast<std::size_t>(gid)].start);
      EXPECT_EQ(e.hi, sim.truth[static_cast<std::size_t>(gid)].end);
      EXPECT_EQ(e.rc, sim.truth[static_cast<std::size_t>(gid)].rc);
    }
    EXPECT_EQ(store.truth_ptr().get(), table.get());  // shared, not copied
  }
}

TEST(TruthThroughReadStore, SizeMismatchIsRejected) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  std::vector<u64> lens;
  for (const auto& r : sim.reads) lens.push_back(r.seq.size());
  dio::ReadStore store(sim.reads, dio::ReadPartition(lens, 2), 0);
  auto wrong = std::make_shared<const dio::TruthTable>(fixture_table());
  EXPECT_THROW(store.attach_truth(wrong), dibella::Error);
}

// --- the overlap oracle -------------------------------------------------------

TEST(OverlapTruth, FixtureOracleByHand) {
  de::OverlapTruth oracle(fixture_table(), 500);
  EXPECT_EQ(oracle.overlap_length(0, 1), 1000u);
  EXPECT_EQ(oracle.overlap_length(1, 0), 1000u);
  EXPECT_EQ(oracle.overlap_length(2, 3), 100u);   // sub-threshold
  EXPECT_EQ(oracle.overlap_length(0, 4), 0u);     // disjoint
  EXPECT_EQ(oracle.overlap_length(0, 5), 1800u);  // strand does not matter
  EXPECT_TRUE(oracle.truly_overlaps(1, 2));
  EXPECT_FALSE(oracle.truly_overlaps(2, 3));

  std::vector<std::pair<u64, u64>> want = {{0, 1}, {0, 5}, {1, 2}, {1, 5}, {3, 4}};
  EXPECT_EQ(oracle.all_true_pairs(), want);
  EXPECT_EQ(oracle.contained_reads(), std::vector<u64>{5});
}

TEST(OverlapTruth, DifferentGenomesNeverOverlap) {
  dio::TruthTable t;
  t.set_genome_length(0, 5000);
  t.set_genome_length(1, 5000);
  t.add({0, 0, 2000, false});
  t.add({1, 0, 2000, false});  // same coordinates, other genome
  t.add({0, 500, 2500, true});
  de::OverlapTruth oracle(t, 500);
  EXPECT_EQ(oracle.overlap_length(0, 1), 0u);
  EXPECT_EQ(oracle.overlap_length(0, 2), 1500u);
  std::vector<std::pair<u64, u64>> want = {{0, 2}};
  EXPECT_EQ(oracle.all_true_pairs(), want);
}

TEST(OverlapTruth, ContainedTieKeepsSmallestGidAsContainer) {
  dio::TruthTable t;
  t.add({0, 100, 900, false});
  t.add({0, 100, 900, true});  // identical interval: the larger gid is contained
  de::OverlapTruth oracle(t, 100);
  EXPECT_EQ(oracle.contained_reads(), std::vector<u64>{1});

  dio::TruthTable t2 = t;
  t2.add({0, 0, 1000, false});  // a strict container swallows both copies
  de::OverlapTruth oracle2(t2, 100);
  std::vector<u64> want = {0, 1};
  EXPECT_EQ(oracle2.contained_reads(), want);
}

TEST(OverlapTruth, ScoreAlignmentsByHand) {
  de::OverlapTruth oracle(fixture_table(), 500);
  // Reported: 3 true pairs, 2 false positives ((2,3) is sub-threshold and
  // (0,4) is disjoint). The duplicate (1,0) and the self record must not
  // inflate the counts.
  std::vector<dibella::align::AlignmentRecord> alignments = {
      rec(0, 1), rec(1, 2), rec(3, 4), rec(2, 3), rec(0, 4), rec(1, 0), rec(2, 2)};
  de::OverlapScore s = oracle.score_alignments(alignments, 500);
  EXPECT_EQ(s.true_pairs, 5u);
  EXPECT_EQ(s.reported_pairs, 5u);
  EXPECT_EQ(s.true_positives, 3u);
  EXPECT_EQ(s.false_positives, 2u);
  EXPECT_EQ(s.false_negatives(), 2u);
  EXPECT_DOUBLE_EQ(s.recall(), 0.6);
  EXPECT_DOUBLE_EQ(s.precision(), 0.6);
  EXPECT_DOUBLE_EQ(s.f1(), 0.6);
  // Per-length bins: truth {500: (1,2)+(1,5), 1000: (0,1)+(3,4), 1500: (0,5)},
  // found {500: (1,2), 1000: (0,1)+(3,4)}.
  EXPECT_EQ(s.truth_by_len.count_of(500), 2u);
  EXPECT_EQ(s.truth_by_len.count_of(1000), 2u);
  EXPECT_EQ(s.truth_by_len.count_of(1500), 1u);
  EXPECT_EQ(s.found_by_len.count_of(500), 1u);
  EXPECT_EQ(s.found_by_len.count_of(1000), 2u);
  EXPECT_EQ(s.found_by_len.count_of(1500), 0u);
}

// --- unitig fidelity ----------------------------------------------------------

TEST(UnitigFidelity, CleanChainMapsToOneSegment) {
  dio::TruthTable t = fixture_table();
  de::OverlapTruth oracle(t, 500);
  auto s = de::score_unitigs({chain({5, 0, 1, 2})}, t, oracle);
  EXPECT_EQ(s.unitigs, 1u);
  EXPECT_EQ(s.misjoined_unitigs, 0u);
  EXPECT_EQ(s.breakpoints, 0u);
  EXPECT_EQ(s.adjacencies, 3u);
  EXPECT_EQ(s.unitig_n50, 4500u);  // union extent [0, 4500)
  EXPECT_EQ(s.longest_unitig_span, 4500u);
  EXPECT_EQ(s.truth_n50, 10'000u);
  EXPECT_EQ(s.reads_in_unitigs, 4u);
  EXPECT_EQ(s.reads_unplaced, 2u);
  EXPECT_EQ(s.truth_contained_reads, 1u);
}

TEST(UnitigFidelity, MisjoinedChainIsFlagged) {
  // (1,4) have disjoint true intervals: the chain 0-1-4 is a misjoin with
  // two mapped segments [0,3000) and [5400,8400).
  dio::TruthTable t = fixture_table();
  de::OverlapTruth oracle(t, 500);
  auto s = de::score_unitigs({chain({0, 1, 4})}, t, oracle);
  EXPECT_EQ(s.misjoined_unitigs, 1u);
  EXPECT_EQ(s.breakpoints, 1u);
  EXPECT_EQ(s.adjacencies, 2u);
  EXPECT_EQ(s.unitig_n50, 6000u);  // 3000 + 3000 covered bases
}

TEST(UnitigFidelity, AdjacencyThroughSubThresholdOverlapIsNotAMisjoin) {
  // (2,3) share only 100 bp — below the oracle's 500 bp recall threshold —
  // but they are genomically adjacent, so chaining them is legitimate.
  dio::TruthTable t = fixture_table();
  de::OverlapTruth oracle(t, 500);
  auto s = de::score_unitigs({chain({1, 2, 3})}, t, oracle);
  EXPECT_EQ(s.misjoined_unitigs, 0u);
  EXPECT_EQ(s.breakpoints, 0u);
  EXPECT_EQ(s.unitig_n50, 5400u);  // [1000, 6400)
}

TEST(UnitigFidelity, CircularClosureIsChecked) {
  dio::TruthTable t = fixture_table();
  de::OverlapTruth oracle(t, 500);
  // 0-1-5 closes cleanly: (5,0) overlap 1800.
  auto good = de::score_unitigs({chain({0, 1, 5}, true)}, t, oracle);
  EXPECT_EQ(good.circular_unitigs, 1u);
  EXPECT_EQ(good.adjacencies, 3u);  // two chain links + the closure
  EXPECT_EQ(good.breakpoints, 0u);
  EXPECT_EQ(good.misjoined_unitigs, 0u);
  // 0-1-2 cannot close: (2,0) are disjoint on a linear genome.
  auto bad = de::score_unitigs({chain({0, 1, 2}, true)}, t, oracle);
  EXPECT_EQ(bad.circular_unitigs, 1u);
  EXPECT_EQ(bad.breakpoints, 1u);
  EXPECT_EQ(bad.misjoined_unitigs, 1u);
}

TEST(UnitigFidelity, CrossGenomeAdjacencyIsAMisjoin) {
  dio::TruthTable t;
  t.set_genome_length(0, 10'000);
  t.set_genome_length(1, 6'000);
  t.add({0, 0, 2000, false});
  t.add({0, 1000, 3000, false});
  t.add({1, 1000, 3000, false});  // same coordinates, different genome
  de::OverlapTruth oracle(t, 500);
  auto s = de::score_unitigs({chain({0, 1, 2})}, t, oracle);
  EXPECT_EQ(s.breakpoints, 1u);
  EXPECT_EQ(s.misjoined_unitigs, 1u);
  EXPECT_EQ(s.truth_n50, 10'000u);  // N50 of {10000, 6000}
}

TEST(UnitigFidelity, N50Helper) {
  EXPECT_EQ(dibella::util::n50({}), 0u);
  EXPECT_EQ(dibella::util::n50({7}), 7u);
  // total 100; 50 covered by the 40+30 prefix -> N50 = 30.
  EXPECT_EQ(dibella::util::n50({10, 30, 40, 20}), 30u);
  EXPECT_EQ(dibella::util::n50({5, 5, 5, 5}), 5u);
}

// --- the combined report ------------------------------------------------------

TEST(EvalReport, TsvSchemaAndFixtureValues) {
  dio::TruthTable t = fixture_table();
  std::vector<dibella::align::AlignmentRecord> alignments = {
      rec(0, 1), rec(1, 2), rec(3, 4), rec(2, 3), rec(0, 4)};
  dibella::sgraph::UnitigResult layout;
  layout.unitigs.push_back(chain({5, 0, 1, 2}));
  de::EvalConfig cfg;
  cfg.min_true_overlap = 500;
  de::EvalReport report = de::evaluate(t, alignments, &layout, cfg);
  ASSERT_TRUE(report.has_unitigs);

  std::ostringstream os;
  de::write_eval_tsv(os, report);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, de::kEvalTsvHeader);
  bool saw_recall = false, saw_unitigs = false;
  while (std::getline(is, line)) {
    // Uniform 3-column rows: section \t metric \t value.
    auto first = line.find('\t');
    auto second = line.find('\t', first + 1);
    ASSERT_NE(first, std::string::npos) << line;
    ASSERT_NE(second, std::string::npos) << line;
    EXPECT_EQ(line.find('\t', second + 1), std::string::npos) << line;
    if (line == "overlap\trecall\t0.600000") saw_recall = true;
    if (line == "unitig\tunitigs\t1") saw_unitigs = true;
  }
  EXPECT_TRUE(saw_recall);
  EXPECT_TRUE(saw_unitigs);
}

TEST(EvalReport, PipelineRequiresTruthForEval) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::core::PipelineConfig cfg;
  cfg.assumed_coverage = 20.0;
  cfg.assumed_error_rate = 0.12;
  cfg.eval = true;
  dibella::comm::World world(2);
  EXPECT_THROW(run_pipeline(world, sim.reads, cfg), dibella::Error);
  auto wrong = std::make_shared<const dio::TruthTable>(fixture_table());
  EXPECT_THROW(run_pipeline(world, sim.reads, cfg, wrong), dibella::Error);
}

// --- the acceptance pin: quality is rank- and schedule-independent ------------

TEST(EvalPinned, ReportIdenticalAcrossRankCountsAndSchedules) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth =
      std::make_shared<const dio::TruthTable>(dibella::simgen::truth_table(sim));
  dibella::core::PipelineConfig cfg;
  cfg.assumed_coverage = 20.0;
  cfg.assumed_error_rate = 0.12;
  cfg.stage5 = true;
  cfg.eval = true;
  cfg.eval_min_overlap = 500;

  std::string reference;
  for (int ranks : {1, 2, 3, 5}) {
    for (bool overlap_comm : {true, false}) {
      cfg.overlap_comm = overlap_comm;
      dibella::comm::World world(ranks);
      auto out = run_pipeline(world, sim.reads, cfg, truth);
      ASSERT_TRUE(out.eval_ran);
      std::ostringstream os;
      de::write_eval_tsv(os, out.eval);
      if (reference.empty()) {
        reference = os.str();
        // The pin is only meaningful if the run actually found overlaps.
        EXPECT_GT(out.eval.overlap.true_positives, 100u);
        EXPECT_GT(out.eval.overlap.recall(), 0.5);
        EXPECT_TRUE(out.eval.has_unitigs);
      } else {
        EXPECT_EQ(os.str(), reference)
            << "eval.tsv diverged at ranks=" << ranks
            << " overlap_comm=" << overlap_comm;
      }
    }
  }
}
