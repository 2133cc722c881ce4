// Fault-tolerance suite: deterministic fault injection, the self-healing
// chunk exchange, stage checkpoint/restart, and graceful degradation.
//
// The acceptance pins:
//   * a run aborted after stage 3 and restarted with --resume writes
//     byte-identical alignments.paf / graph.gfa / eval.tsv to an
//     uninterrupted run, across rank counts and both --overlap-comm
//     schedules;
//   * injected transport faults (drop / duplicate / delay / truncate /
//     bitflip) are absorbed by the CRC + retry protocol with nonzero
//     fault counters and byte-identical outputs, under both schedules;
//   * an injected rank abort poisons the world (every sibling unwinds, no
//     hang) and --on-rank-failure=degrade finishes the run with the lost
//     shard dropped and eval.tsv reporting the degradation honestly.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "comm/communicator.hpp"
#include "comm/exchanger.hpp"
#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "core/alignment_spill.hpp"
#include "core/checkpoint.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "eval/report.hpp"
#include "io/fastx.hpp"
#include "io/truth.hpp"
#include "mutation.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"
#include "util/random.hpp"

namespace dc = dibella::core;
namespace dcomm = dibella::comm;
namespace dio = dibella::io;
namespace fs = std::filesystem;
using dibella::u32;
using dibella::u64;
using dibella::u8;

namespace {

struct DriverResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

DriverResult run_driver(const std::vector<std::string>& options) {
  std::vector<const char*> argv = {"dibella"};
  for (const auto& opt : options) argv.push_back(opt.c_str());
  std::ostringstream out, err;
  DriverResult r;
  r.exit_code = dibella::cli::run_driver(static_cast<int>(argv.size()),
                                         argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::map<std::string, u64> parse_counters(const std::string& data) {
  std::map<std::string, u64> counters;
  std::istringstream is(data);
  std::string line;
  std::getline(is, line);  // header
  while (std::getline(is, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    counters[line.substr(0, tab)] =
        std::strtoull(line.c_str() + tab + 1, nullptr, 10);
  }
  return counters;
}

u64 eval_row(const std::string& eval_tsv, const std::string& section,
             const std::string& metric) {
  const std::string prefix = section + "\t" + metric + "\t";
  std::istringstream is(eval_tsv);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  ADD_FAILURE() << "no " << section << "/" << metric << " row in eval.tsv";
  return 0;
}

struct Dataset {
  std::vector<dio::Read> reads;
  std::shared_ptr<const dio::TruthTable> truth;
};

const Dataset& tiny_dataset() {
  static const Dataset d = [] {
    auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
    Dataset out;
    out.truth =
        std::make_shared<const dio::TruthTable>(dibella::simgen::truth_table(sim));
    out.reads = std::move(sim.reads);
    return out;
  }();
  return d;
}

dc::PipelineConfig tiny_config() {
  dc::PipelineConfig cfg;
  cfg.assumed_error_rate = 0.12;  // matches the tiny preset
  cfg.assumed_coverage = 20.0;
  cfg.batch_kmers = 50'000;
  cfg.stage5 = true;
  return cfg;
}

class FaultCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("dibella_fault_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string load(const fs::path& p) { return dio::load_file(p.string()); }

  /// --spill-dir under the test dir, so a test can check that no run left a
  /// dibella-spill-* directory behind.
  std::string spill_flag() {
    fs::create_directories(dir_ / "spill");
    return "--spill-dir=" + (dir_ / "spill").string();
  }
  void expect_no_spill_left() {
    for (const auto& entry : fs::directory_iterator(dir_ / "spill")) {
      ADD_FAILURE() << "leftover spill entry: " << entry.path();
    }
  }

  fs::path dir_;
};

/// The three pinned output files of an out-dir, concatenated for comparison.
struct Outputs {
  std::string paf, gfa, eval_tsv;
};

Outputs outputs_of(const fs::path& out_dir) {
  Outputs o;
  o.paf = dio::load_file((out_dir / dibella::cli::kAlignmentsFile).string());
  o.gfa = dio::load_file((out_dir / dibella::cli::kGfaFile).string());
  o.eval_tsv = dio::load_file((out_dir / dibella::cli::kEvalFile).string());
  return o;
}

void expect_outputs_equal(const Outputs& a, const Outputs& b) {
  EXPECT_EQ(a.paf, b.paf);
  EXPECT_EQ(a.gfa, b.gfa);
  EXPECT_EQ(a.eval_tsv, b.eval_tsv);
}

}  // namespace

// --- FaultPlan parsing -------------------------------------------------------

TEST(FaultPlan, ParsesSpecLists) {
  auto plan =
      dcomm::FaultPlan::parse("drop@overlap:0,abort@align:3:2,bitflip@ht:1:1");
  ASSERT_EQ(plan->specs().size(), 3u);
  EXPECT_EQ(plan->specs()[0].kind, dcomm::FaultKind::kDrop);
  EXPECT_EQ(plan->specs()[0].stage, "overlap");
  EXPECT_EQ(plan->specs()[0].epoch, 0u);
  EXPECT_EQ(plan->specs()[0].rank, 0);
  EXPECT_EQ(plan->specs()[1].kind, dcomm::FaultKind::kAbort);
  EXPECT_EQ(plan->specs()[1].epoch, 3u);
  EXPECT_EQ(plan->specs()[1].rank, 2);
  EXPECT_EQ(plan->specs()[2].kind, dcomm::FaultKind::kBitFlip);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "drop", "drop@overlap", "drop@overlap:x", "zap@overlap:0",
        "drop@nowhere:0", "drop@overlap:0:abc", "drop@overlap:0,",
        "@overlap:0"}) {
    EXPECT_THROW(dcomm::FaultPlan::parse(bad), dibella::Error) << bad;
  }
}

// --- self-healing exchange ---------------------------------------------------

namespace {

/// Run one flushed Exchanger batch under `plan` on a P-rank world, verify
/// every rank receives exactly what every rank sent, and return the summed
/// fault stats.
/// `late_rank` (if >= 0) sleeps before posting, so its peers are already
/// waiting for its chunks when they are deposited.
dcomm::CommFaultStats exchange_under_fault(int P, const std::string& plan,
                                           int late_rank = -1) {
  dcomm::World world(P, 60.0);
  world.set_fault_plan(dcomm::FaultPlan::parse(plan));
  world.run([&](dcomm::Communicator& comm) {
    comm.set_stage("overlap");
    if (comm.rank() == late_rank) usleep(200'000);
    dcomm::Exchanger ex(comm);
    std::vector<u64> payload(1024);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<u64>(comm.rank()) * 1'000'000 + i;
    }
    for (int d = 0; d < comm.size(); ++d) ex.post(d, payload);
    ex.flush_async(/*done=*/true);
    dcomm::RecvBatch batch = ex.wait();
    for (int src = 0; src < comm.size(); ++src) {
      std::vector<u64> got;
      batch.append_from(src, got);
      ASSERT_EQ(got.size(), payload.size()) << "src " << src;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<u64>(src) * 1'000'000 + i)
            << "src " << src << " item " << i;
      }
    }
  });
  return world.comm_fault_stats();
}

}  // namespace

TEST(SelfHealingExchange, DropIsRetransmittedFromReplay) {
  auto stats = exchange_under_fault(2, "drop@overlap:0");
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.corrupt_chunks, 0u);
}

TEST(SelfHealingExchange, DropWhileReceiverWaitsIsRetransmitted) {
  // Rank 1 is already blocked on rank 0's chunk when rank 0 deposits it and
  // the drop fault discards the wire copy: the receiver must wake on the
  // replay entry and retransmit, not sleep until the world timeout.
  auto stats = exchange_under_fault(2, "drop@overlap:0", /*late_rank=*/0);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.corrupt_chunks, 0u);
}

TEST(SelfHealingExchange, BitFlipFailsCrcAndIsRetransmitted) {
  auto stats = exchange_under_fault(3, "bitflip@overlap:0");
  EXPECT_GE(stats.corrupt_chunks, 1u);
  EXPECT_GE(stats.retries, 1u);
}

TEST(SelfHealingExchange, TruncationFailsValidationAndIsRetransmitted) {
  auto stats = exchange_under_fault(2, "truncate@overlap:0");
  EXPECT_GE(stats.corrupt_chunks, 1u);
  EXPECT_GE(stats.retries, 1u);
}

TEST(SelfHealingExchange, DuplicateDeliveryIsDiscardedIdempotently) {
  auto stats = exchange_under_fault(2, "duplicate@overlap:0");
  EXPECT_GE(stats.redeliveries, 1u);
}

TEST(SelfHealingExchange, DelayedChunkIsRecoveredWithoutHanging) {
  auto stats = exchange_under_fault(2, "delay@overlap:0");
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.redeliveries, 1u);
}

TEST(SelfHealingExchange, FaultFreeRunHasZeroFaultCounters) {
  // An installed-but-never-matching plan must not perturb the protocol.
  auto stats = exchange_under_fault(3, "drop@sgraph:99");
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.redeliveries, 0u);
  EXPECT_EQ(stats.corrupt_chunks, 0u);
}

namespace {

/// The pinned output bytes of an in-process run: PAF, GFA and eval.tsv.
Outputs pinned_outputs(const dc::PipelineOutput& out) {
  const auto& reads = tiny_dataset().reads;
  std::ostringstream paf, gfa, eval_tsv;
  dc::write_paf(paf, out.merged_alignments(), reads);
  dibella::sgraph::write_gfa(gfa, out.string_graph.surviving_edges, reads);
  dibella::eval::write_eval_tsv(eval_tsv, out.eval);
  return Outputs{paf.str(), gfa.str(), eval_tsv.str()};
}

}  // namespace

TEST(SelfHealingExchange, SeededTransportPlansAreAbsorbedEverywhere) {
  // Random transport plans — one spec per stage, each with a random kind,
  // epoch in {0, 1} and injecting rank — at ranks {2, 3, 5} under both
  // schedules. Every run must write the fault-free PAF/GFA/eval bytes, and
  // every fault that fired must show in the comm_chunk_* counters: each
  // drop, truncation or bit flip costs at least one replay retry, each
  // duplicate one discarded redelivery, and only truncations and bit flips
  // produce corrupt chunks. A delay shows only when the receiver asks for
  // the chunk before it becomes visible, so it is pinned by the output
  // bytes alone.
  const dcomm::FaultKind kKinds[] = {dcomm::FaultKind::kDrop, dcomm::FaultKind::kDuplicate,
                                     dcomm::FaultKind::kDelay, dcomm::FaultKind::kTruncate,
                                     dcomm::FaultKind::kBitFlip};
  const char* const kStages[] = {"bloom", "ht", "overlap", "align", "sgraph"};
  dibella::util::Xoshiro256 rng(2019);
  dc::PipelineConfig cfg = tiny_config();
  cfg.eval = true;
  for (int P : {2, 3, 5}) {
    for (bool overlap : {true, false}) {
      cfg.overlap_comm = overlap;
      dcomm::World world(P, 60.0);
      const Outputs want =
          pinned_outputs(dc::run_pipeline(world, tiny_dataset().reads, cfg, tiny_dataset().truth));
      for (int trial = 0; trial < 2; ++trial) {
        std::vector<dcomm::FaultSpec> specs;
        std::string where = "P=" + std::to_string(P) + (overlap ? " overlapped" : " depth 0");
        for (const char* stage : kStages) {
          dcomm::FaultSpec spec;
          spec.kind = kKinds[rng.uniform_below(5)];
          spec.stage = stage;
          spec.epoch = rng.uniform_below(2);
          spec.rank = static_cast<int>(rng.uniform_below(static_cast<u64>(P)));
          where += std::string(" ") + dcomm::fault_kind_name(spec.kind) + "@" + stage + ":" +
                   std::to_string(spec.epoch) + ":" + std::to_string(spec.rank);
          specs.push_back(spec);
        }
        SCOPED_TRACE(where);
        auto plan = std::make_shared<const dcomm::FaultPlan>(specs);
        world.set_fault_plan(plan);
        const dc::PipelineOutput out =
            dc::run_pipeline(world, tiny_dataset().reads, cfg, tiny_dataset().truth);
        world.set_fault_plan(nullptr);
        expect_outputs_equal(want, pinned_outputs(out));

        u64 must_retry = 0, must_redeliver = 0, may_corrupt = 0, delays = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          // Every stage flushes at least once on every rank.
          if (specs[i].epoch == 0) {
            EXPECT_TRUE(plan->fired(i)) << specs[i].stage;
          }
          if (!plan->fired(i)) continue;
          switch (specs[i].kind) {
            case dcomm::FaultKind::kDuplicate: ++must_redeliver; break;
            case dcomm::FaultKind::kDelay: ++delays; break;
            case dcomm::FaultKind::kTruncate:
            case dcomm::FaultKind::kBitFlip: ++may_corrupt; [[fallthrough]];
            default: ++must_retry; break;
          }
        }
        // A delay that bites costs exactly one retry and one redelivery.
        const auto& c = out.counters;
        EXPECT_GE(c.comm_chunk_retries, must_retry);
        EXPECT_LE(c.comm_chunk_retries, must_retry + delays);
        EXPECT_GE(c.comm_chunk_redeliveries, must_redeliver);
        EXPECT_LE(c.comm_chunk_redeliveries, must_redeliver + delays);
        EXPECT_LE(c.comm_corrupt_chunks, may_corrupt);
      }
    }
  }
}

// --- poison propagation ------------------------------------------------------

TEST(PoisonPropagation, AbortInEachStageUnwindsEverySiblingWithoutHanging) {
  for (const char* stage : {"bloom", "ht", "overlap", "align", "sgraph"}) {
    SCOPED_TRACE(stage);
    dcomm::World world(3, 60.0);
    world.set_fault_plan(
        dcomm::FaultPlan::parse(std::string("abort@") + stage + ":0:1"));
    dc::PipelineConfig cfg = tiny_config();
    bool threw = false;
    try {
      dc::run_pipeline(world, tiny_dataset().reads, cfg, tiny_dataset().truth);
    } catch (const dcomm::RankFailure& e) {
      threw = true;
      EXPECT_EQ(e.failed_rank(), 1);
      EXPECT_NE(std::string(e.what()).find(stage), std::string::npos) << e.what();
    }
    EXPECT_TRUE(threw) << "abort@" << stage << ":0:1 never fired";
    EXPECT_EQ(world.last_poisoned_siblings(), 2)
        << "siblings did not unwind with WorldPoisoned";
  }
}

// --- checkpoint primitives ---------------------------------------------------

TEST(Checkpoint, FingerprintTracksOutputDeterminingInputs) {
  const auto& data = tiny_dataset();
  dc::PipelineConfig cfg = tiny_config();
  const u32 base = dc::checkpoint_fingerprint(data.reads, cfg, 3);
  EXPECT_EQ(base, dc::checkpoint_fingerprint(data.reads, cfg, 3));  // stable

  EXPECT_NE(base, dc::checkpoint_fingerprint(data.reads, cfg, 4));  // ranks
  dc::PipelineConfig changed = cfg;
  changed.k = 15;
  EXPECT_NE(base, dc::checkpoint_fingerprint(data.reads, changed, 3));
  changed = cfg;
  changed.xdrop = 30;
  EXPECT_NE(base, dc::checkpoint_fingerprint(data.reads, changed, 3));
  auto fewer = data.reads;
  fewer.pop_back();
  EXPECT_NE(base, dc::checkpoint_fingerprint(fewer, cfg, 3));

  // Schedule knobs are deliberately excluded: a run may resume under a
  // different communication schedule or block count.
  changed = cfg;
  changed.overlap_comm = !changed.overlap_comm;
  changed.blocks = 4;
  changed.exchange_chunk_bytes = 1024;
  EXPECT_EQ(base, dc::checkpoint_fingerprint(data.reads, changed, 3));
}

TEST(Checkpoint, ManifestRoundTripAndMismatchDetection) {
  const fs::path dir = fs::path(::testing::TempDir()) / "dibella_ckpt_roundtrip";
  fs::remove_all(dir);

  EXPECT_EQ(dc::CheckpointSet::probe_last_complete(dir.string()),
            dc::CheckpointStage::kNone);

  auto set = dc::CheckpointSet::start(dir.string(), 0xabcdu, 2);
  std::vector<u8> payload = {1, 2, 3, 4, 5};
  set->write_payload(dc::CheckpointStage::kBloom, 0, payload);
  set->write_payload(dc::CheckpointStage::kBloom, 1, {});
  set->mark_complete(dc::CheckpointStage::kBloom);

  // No completed stage yet from a different fingerprint / rank count.
  EXPECT_THROW(dc::CheckpointSet::open(dir.string(), 0xdeadu, 2), dibella::Error);
  EXPECT_THROW(dc::CheckpointSet::open(dir.string(), 0xabcdu, 3), dibella::Error);

  auto reopened = dc::CheckpointSet::open(dir.string(), 0xabcdu, 2);
  EXPECT_EQ(reopened->last_complete(), dc::CheckpointStage::kBloom);
  EXPECT_EQ(reopened->read_payload(dc::CheckpointStage::kBloom, 0), payload);
  EXPECT_TRUE(reopened->read_payload(dc::CheckpointStage::kBloom, 1).empty());
  EXPECT_EQ(dc::CheckpointSet::probe_last_complete(dir.string()),
            dc::CheckpointStage::kBloom);

  // A corrupted payload fails its CRC on read-back.
  {
    std::fstream f(set->payload_path(dc::CheckpointStage::kBloom, 0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(sizeof(u32) + sizeof(u64) + 2));
    char flip = 99;
    f.write(&flip, 1);
  }
  EXPECT_THROW(reopened->read_payload(dc::CheckpointStage::kBloom, 0),
               dibella::Error);
  fs::remove_all(dir);
}

TEST(Checkpoint, OversizedLengthFieldIsATypedError) {
  // The payload length is checked against the file before anything is
  // allocated: a length field of ~0 must fail as a typed Error, not as a
  // std::length_error from a huge allocation. A length that disagrees with
  // the file in either direction, or a trailing byte, fails the same way.
  const fs::path dir = fs::path(::testing::TempDir()) / "dibella_ckpt_length";
  fs::remove_all(dir);
  auto set = dc::CheckpointSet::start(dir.string(), 0x1234u, 1);
  set->write_payload(dc::CheckpointStage::kBloom, 0, {1, 2, 3});
  set->mark_complete(dc::CheckpointStage::kBloom);
  for (u64 length : {~u64{0}, u64{4}, u64{2}, u64{1} << 40}) {
    SCOPED_TRACE(length);
    {
      std::fstream f(set->payload_path(dc::CheckpointStage::kBloom, 0),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(sizeof(u32)));
      f.write(reinterpret_cast<const char*>(&length), sizeof(length));
    }
    try {
      (void)set->read_payload(dc::CheckpointStage::kBloom, 0);
      ADD_FAILURE() << "a length field that disagrees with the file must throw";
    } catch (const dibella::Error& e) {
      EXPECT_NE(std::string(e.what()).find("length field"), std::string::npos) << e.what();
    }
  }
  // A well-formed payload followed by one stray byte.
  set->write_payload(dc::CheckpointStage::kBloom, 0, {1, 2, 3});
  EXPECT_EQ(set->read_payload(dc::CheckpointStage::kBloom, 0), (std::vector<u8>{1, 2, 3}));
  {
    std::ofstream f(set->payload_path(dc::CheckpointStage::kBloom, 0),
                    std::ios::binary | std::ios::app);
    f.put('x');
  }
  EXPECT_THROW(set->read_payload(dc::CheckpointStage::kBloom, 0), dibella::Error);
  fs::remove_all(dir);
}

TEST(Checkpoint, SeededManifestMutationsEndInErrorOrAValidOpen) {
  // Truncate, flip and splice the manifest. `open` either refuses it with
  // dibella::Error or resumes from a stage it can restore.
  const fs::path dir = fs::path(::testing::TempDir()) / "dibella_ckpt_mutations";
  const fs::path other_dir = fs::path(::testing::TempDir()) / "dibella_ckpt_mutations_other";
  fs::remove_all(dir);
  fs::remove_all(other_dir);
  auto manifest = [](const fs::path& d) {
    return dibella::io::load_file((d / "manifest.tsv").string());
  };
  auto other = dc::CheckpointSet::start(other_dir.string(), 0x77u, 5);
  other->mark_complete(dc::CheckpointStage::kHashTable);
  const std::string splice = manifest(other_dir);

  dibella::util::Xoshiro256 rng(1618);
  for (auto last : {dc::CheckpointStage::kBloom, dc::CheckpointStage::kOverlap,
                    dc::CheckpointStage::kAlignment}) {
    auto set = dc::CheckpointSet::start(dir.string(), 0xabcdu, 3);
    for (u32 s = 1; s <= static_cast<u32>(last); ++s) {
      set->mark_complete(static_cast<dc::CheckpointStage>(s));
    }
    const std::string text = manifest(dir);
    ASSERT_EQ(dc::CheckpointSet::open(dir.string(), 0xabcdu, 3)->last_complete(), last);
    for (const std::string& m : dibella::test::seeded_mutants(text, splice, rng)) {
      dibella::io::save_file((dir / "manifest.tsv").string(), m);
      try {
        const auto opened = dc::CheckpointSet::open(dir.string(), 0xabcdu, 3);
        EXPECT_GE(opened->last_complete(), dc::CheckpointStage::kBloom);
        EXPECT_LE(opened->last_complete(), dc::CheckpointStage::kAlignment);
      } catch (const dibella::Error&) {
      }
    }
  }
  fs::remove_all(dir);
  fs::remove_all(other_dir);
}

// --- spill-run framing -------------------------------------------------------

namespace {

std::vector<dibella::align::AlignmentRecord> sample_records(std::size_t n) {
  std::vector<dibella::align::AlignmentRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].rid_a = i;
    records[i].rid_b = i + 1;
    records[i].score = static_cast<dibella::i32>(10 * i);
    records[i].a_end = static_cast<u32>(i + 7);
  }
  return records;
}

void drain(dc::SpillMergeSource& source) {
  dibella::align::AlignmentRecord rec;
  while (source.next(rec)) {
  }
}

}  // namespace

TEST(SpillRunFraming, CleanRunRoundTrips) {
  const fs::path path = fs::path(::testing::TempDir()) / "dibella_spill_clean.bin";
  auto records = sample_records(100);
  dc::write_alignment_run(path.string(), records);

  dc::SpillMergeSource source({path.string()});
  dibella::align::AlignmentRecord rec;
  std::size_t got = 0;
  while (source.next(rec)) {
    EXPECT_EQ(rec.rid_a, records[got].rid_a);
    EXPECT_EQ(rec.score, records[got].score);
    ++got;
  }
  EXPECT_EQ(got, records.size());
  fs::remove(path);
}

TEST(SpillRunFraming, BitFlipFailsTheCrc) {
  const fs::path path = fs::path(::testing::TempDir()) / "dibella_spill_flip.bin";
  dc::write_alignment_run(path.string(), sample_records(100));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  dc::SpillMergeSource source({path.string()});
  try {
    drain(source);
    FAIL() << "bit-flipped spill run streamed without a CRC error";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC32 mismatch"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(SpillRunFraming, TruncationIsDetected) {
  const fs::path path = fs::path(::testing::TempDir()) / "dibella_spill_trunc.bin";
  dc::write_alignment_run(path.string(), sample_records(100));
  fs::resize_file(path, fs::file_size(path) - 10);
  // Detection may hit at the constructor's priming refill or while draining.
  EXPECT_THROW(
      {
        dc::SpillMergeSource source({path.string()});
        drain(source);
      },
      dibella::Error);
  fs::remove(path);
}

TEST(SpillRunFraming, TrailingBytesAfterTheCrcAreRejected) {
  const fs::path path = fs::path(::testing::TempDir()) / "dibella_spill_tail.bin";
  dc::write_alignment_run(path.string(), sample_records(100));
  std::ofstream(path, std::ios::binary | std::ios::app).put('\0');
  try {
    dc::SpillMergeSource source({path.string()});
    drain(source);
    FAIL() << "spill run with a trailing byte streamed without an error";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(SpillRunFraming, BadMagicFailsAtOpen) {
  const fs::path path = fs::path(::testing::TempDir()) / "dibella_spill_magic.bin";
  dc::write_alignment_run(path.string(), sample_records(10));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const u32 wrong = 0x1234abcd;
    f.write(reinterpret_cast<const char*>(&wrong), sizeof(wrong));
  }
  EXPECT_THROW(dc::SpillMergeSource(std::vector<std::string>{path.string()}),
               dibella::Error);
  fs::remove(path);
}

// --- orphan spill reclamation ------------------------------------------------

TEST(SpillReclamation, RemovesDeadOwnersKeepsLiveAndUnrelated) {
  const fs::path parent = fs::path(::testing::TempDir()) / "dibella_reclaim";
  fs::remove_all(parent);
  fs::create_directories(parent);

  // INT_MAX is far above any real Linux pid (default max 4194304), so its
  // owner is reliably "dead".
  const fs::path dead = parent / "dibella-spill-2147483647-0";
  const fs::path live =
      parent / ("dibella-spill-" + std::to_string(::getpid()) + "-3");
  const fs::path unrelated = parent / "some-other-dir";
  const fs::path malformed = parent / "dibella-spill-notapid-0";
  for (const auto& d : {dead, live, unrelated, malformed}) {
    fs::create_directories(d);
    std::ofstream(d / "run.bin") << "payload";
  }

  EXPECT_EQ(dc::reclaim_orphan_spill_dirs(parent.string()), 1u);
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(live));       // our own pid: never reclaimed
  EXPECT_TRUE(fs::exists(unrelated));  // not a spill dir
  EXPECT_TRUE(fs::exists(malformed));  // unparseable pid: left alone
  fs::remove_all(parent);
}

TEST(SpillReclamation, RankAbortUnwindLeavesNoSpillDirBehind) {
  const fs::path parent = fs::path(::testing::TempDir()) / "dibella_unwind_spill";
  fs::remove_all(parent);
  fs::create_directories(parent);

  dcomm::World world(3, 60.0);
  world.set_fault_plan(dcomm::FaultPlan::parse("abort@align:0:1"));
  dc::PipelineConfig cfg = tiny_config();
  cfg.blocks = 4;
  cfg.spill_dir = parent.string();
  EXPECT_THROW(
      dc::run_pipeline(world, tiny_dataset().reads, cfg, tiny_dataset().truth),
      dcomm::RankFailure);

  // RAII owns the spill directory: the abort unwound through run_pipeline
  // and removed it, leaving nothing for a later reclamation pass.
  for (const auto& entry : fs::directory_iterator(parent)) {
    ADD_FAILURE() << "leftover spill entry: " << entry.path();
  }
  fs::remove_all(parent);
}

// --- checkpoint/restart acceptance (driver level) ----------------------------

TEST_F(FaultCli, ResumeIsByteIdenticalAcrossRankCountsAndSchedules) {
  for (int ranks : {1, 2, 3, 5}) {
    for (const char* sched : {"on", "off"}) {
      SCOPED_TRACE(std::to_string(ranks) + " ranks, overlap-comm=" + sched);
      const fs::path cell = dir_ / (std::to_string(ranks) + "_" + sched);
      const std::vector<std::string> common = {
          "--preset=tiny", "--ranks=" + std::to_string(ranks),
          "--overlap-comm=" + std::string(sched)};

      auto ref_args = common;
      ref_args.push_back("--out-dir=" + (cell / "ref").string());
      DriverResult ref = run_driver(ref_args);
      ASSERT_EQ(ref.exit_code, dibella::cli::kExitOk) << ref.err;

      // Kill the last rank at the first stage-4 collective: stages 1-3 are
      // checkpointed, stage 4 is not.
      auto abort_args = common;
      abort_args.push_back(spill_flag());
      abort_args.push_back("--checkpoint-dir=" + (cell / "ckpt").string());
      abort_args.push_back("--inject-fault=abort@align:0:" +
                           std::to_string(ranks - 1));
      abort_args.push_back("--out-dir=" + (cell / "aborted").string());
      DriverResult aborted = run_driver(abort_args);
      EXPECT_EQ(aborted.exit_code, dibella::cli::kExitCommFailure) << aborted.err;
      EXPECT_FALSE(
          fs::exists(cell / "aborted" / dibella::cli::kAlignmentsFile));

      auto resume_args = common;
      resume_args.push_back(spill_flag());
      resume_args.push_back("--checkpoint-dir=" + (cell / "ckpt").string());
      resume_args.push_back("--resume");
      resume_args.push_back("--out-dir=" + (cell / "resumed").string());
      DriverResult resumed = run_driver(resume_args);
      ASSERT_EQ(resumed.exit_code, dibella::cli::kExitOk) << resumed.err;

      expect_outputs_equal(outputs_of(cell / "ref"),
                           outputs_of(cell / "resumed"));
      expect_no_spill_left();
    }
  }
}

TEST_F(FaultCli, ResumeRestoresEveryCheckpointStage) {
  // Abort progressively later, so --resume exercises each restore codec:
  // stage-1 candidate keys, stage-2 table shards, stage-3 tasks, and (for a
  // run that completed) the stage-4 record runs.
  const fs::path ref_dir = dir_ / "ref";
  DriverResult ref = run_driver(
      {"--preset=tiny", "--ranks=3", "--out-dir=" + ref_dir.string()});
  ASSERT_EQ(ref.exit_code, dibella::cli::kExitOk) << ref.err;
  const Outputs want = outputs_of(ref_dir);

  int case_index = 0;
  for (const char* fault : {"abort@ht:0:1", "abort@overlap:0:2",
                            "abort@align:0:0"}) {
    SCOPED_TRACE(fault);
    const fs::path cell = dir_ / ("case" + std::to_string(case_index++));
    const std::string ckpt = "--checkpoint-dir=" + (cell / "ckpt").string();
    DriverResult aborted = run_driver(
        {"--preset=tiny", "--ranks=3", ckpt, spill_flag(),
         "--inject-fault=" + std::string(fault),
         "--out-dir=" + (cell / "aborted").string()});
    EXPECT_EQ(aborted.exit_code, dibella::cli::kExitCommFailure) << aborted.err;

    DriverResult resumed = run_driver(
        {"--preset=tiny", "--ranks=3", ckpt, spill_flag(), "--resume",
         "--out-dir=" + (cell / "resumed").string()});
    ASSERT_EQ(resumed.exit_code, dibella::cli::kExitOk) << resumed.err;
    expect_outputs_equal(want, outputs_of(cell / "resumed"));
    expect_no_spill_left();
  }

  // A run that finished cleanly left a complete stage-4 checkpoint; resume
  // re-runs only stage 5 from the restored record runs.
  const fs::path cell = dir_ / "complete";
  const std::string ckpt = "--checkpoint-dir=" + (cell / "ckpt").string();
  DriverResult full = run_driver({"--preset=tiny", "--ranks=3", ckpt,
                                  "--out-dir=" + (cell / "first").string()});
  ASSERT_EQ(full.exit_code, dibella::cli::kExitOk) << full.err;
  DriverResult resumed = run_driver(
      {"--preset=tiny", "--ranks=3", ckpt, spill_flag(), "--resume",
       "--out-dir=" + (cell / "resumed").string()});
  ASSERT_EQ(resumed.exit_code, dibella::cli::kExitOk) << resumed.err;
  expect_outputs_equal(want, outputs_of(cell / "resumed"));
  expect_no_spill_left();
  // The resumed run read the stage-4 payloads in place and kept them.
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_TRUE(fs::exists(cell / "ckpt" /
                           ("stage4.align.r" + std::to_string(rank) + ".bin")));
  }
}

TEST_F(FaultCli, ResumeRejectsATrailingByteInTheStage4Payload) {
  // A stage-4 checkpoint payload is adopted as its rank's spill run, so the
  // run decoder's frame checks guard --resume: one byte appended after the
  // CRC32 trailer must fail the resume with a runtime error naming the file.
  const std::string ckpt = "--checkpoint-dir=" + (dir_ / "ckpt").string();
  DriverResult full = run_driver({"--preset=tiny", "--ranks=2", ckpt,
                                  "--out-dir=" + (dir_ / "first").string()});
  ASSERT_EQ(full.exit_code, dibella::cli::kExitOk) << full.err;
  const fs::path payload = dir_ / "ckpt" / "stage4.align.r1.bin";
  ASSERT_TRUE(fs::exists(payload));
  std::ofstream(payload, std::ios::binary | std::ios::app).put('\0');

  DriverResult resumed = run_driver(
      {"--preset=tiny", "--ranks=2", ckpt, spill_flag(), "--resume",
       "--out-dir=" + (dir_ / "resumed").string()});
  EXPECT_EQ(resumed.exit_code, dibella::cli::kExitRuntimeError) << resumed.err;
  EXPECT_NE(resumed.err.find("trailing bytes"), std::string::npos) << resumed.err;
  EXPECT_NE(resumed.err.find("stage4.align.r1.bin"), std::string::npos)
      << resumed.err;
  EXPECT_FALSE(fs::exists(dir_ / "resumed" / dibella::cli::kAlignmentsFile));
  expect_no_spill_left();
}

TEST_F(FaultCli, ResumeUnderTheOtherScheduleStillMatches) {
  // The fingerprint excludes schedule knobs on purpose: abort under
  // --overlap-comm=on, resume under off (and with blocks), same bytes.
  const fs::path ref_dir = dir_ / "ref";
  DriverResult ref = run_driver(
      {"--preset=tiny", "--ranks=3", "--out-dir=" + ref_dir.string()});
  ASSERT_EQ(ref.exit_code, dibella::cli::kExitOk) << ref.err;

  const std::string ckpt = "--checkpoint-dir=" + (dir_ / "ckpt").string();
  DriverResult aborted = run_driver(
      {"--preset=tiny", "--ranks=3", "--overlap-comm=on", ckpt,
       "--inject-fault=abort@align:0:2",
       "--out-dir=" + (dir_ / "aborted").string()});
  EXPECT_EQ(aborted.exit_code, dibella::cli::kExitCommFailure) << aborted.err;

  DriverResult resumed = run_driver(
      {"--preset=tiny", "--ranks=3", "--overlap-comm=off", ckpt, "--resume",
       "--out-dir=" + (dir_ / "resumed").string()});
  ASSERT_EQ(resumed.exit_code, dibella::cli::kExitOk) << resumed.err;
  expect_outputs_equal(outputs_of(ref_dir), outputs_of(dir_ / "resumed"));
}

TEST_F(FaultCli, ResumeWithChangedParametersRefuses) {
  const std::string ckpt = "--checkpoint-dir=" + (dir_ / "ckpt").string();
  DriverResult first = run_driver({"--preset=tiny", "--ranks=2", ckpt,
                                   "--out-dir=" + (dir_ / "first").string()});
  ASSERT_EQ(first.exit_code, dibella::cli::kExitOk) << first.err;

  // A changed output-determining parameter (k) must refuse, loudly, rather
  // than resume into a checkpoint that no longer matches the run.
  DriverResult changed = run_driver(
      {"--preset=tiny", "--ranks=2", "--k=15", ckpt, "--resume",
       "--out-dir=" + (dir_ / "second").string()});
  EXPECT_EQ(changed.exit_code, dibella::cli::kExitRuntimeError);
  EXPECT_NE(changed.err.find("refusing to resume"), std::string::npos)
      << changed.err;

  // So must a changed rank count.
  DriverResult reranked = run_driver(
      {"--preset=tiny", "--ranks=3", ckpt, "--resume",
       "--out-dir=" + (dir_ / "third").string()});
  EXPECT_EQ(reranked.exit_code, dibella::cli::kExitRuntimeError);
}

// --- transport faults absorbed (driver level) --------------------------------

TEST_F(FaultCli, DropFaultIsAbsorbedWithUnchangedOutputs) {
  const fs::path ref_dir = dir_ / "ref";
  DriverResult ref = run_driver(
      {"--preset=tiny", "--ranks=3", "--out-dir=" + ref_dir.string()});
  ASSERT_EQ(ref.exit_code, dibella::cli::kExitOk) << ref.err;
  auto ref_counters =
      parse_counters(load(ref_dir / dibella::cli::kCountersFile));
  EXPECT_EQ(ref_counters.at("comm_chunk_retries"), 0u);
  EXPECT_EQ(ref_counters.at("comm_corrupt_chunks"), 0u);

  const fs::path fault_dir = dir_ / "fault";
  DriverResult faulted = run_driver(
      {"--preset=tiny", "--ranks=3", "--inject-fault=drop@overlap:0",
       "--out-dir=" + fault_dir.string()});
  ASSERT_EQ(faulted.exit_code, dibella::cli::kExitOk) << faulted.err;

  expect_outputs_equal(outputs_of(ref_dir), outputs_of(fault_dir));
  auto counters = parse_counters(load(fault_dir / dibella::cli::kCountersFile));
  EXPECT_GE(counters.at("comm_chunk_retries"), 1u);
}

TEST_F(FaultCli, MultiFaultRunAbsorbsEveryTransportKind) {
  // Both schedules run the same framed exchange, so both self-heal.
  for (const char* sched : {"on", "off"}) {
    SCOPED_TRACE(std::string("overlap-comm=") + sched);
    const std::string schedule = "--overlap-comm=" + std::string(sched);
    const fs::path ref_dir = dir_ / sched / "ref";
    DriverResult ref = run_driver(
        {"--preset=tiny", "--ranks=3", schedule, "--out-dir=" + ref_dir.string()});
    ASSERT_EQ(ref.exit_code, dibella::cli::kExitOk) << ref.err;

    const fs::path fault_dir = dir_ / sched / "fault";
    DriverResult faulted = run_driver(
        {"--preset=tiny", "--ranks=3", schedule,
         "--inject-fault=drop@bloom:0,duplicate@ht:0,truncate@overlap:0,"
         "bitflip@align:0,delay@align:1",
         "--out-dir=" + fault_dir.string()});
    ASSERT_EQ(faulted.exit_code, dibella::cli::kExitOk) << faulted.err;

    expect_outputs_equal(outputs_of(ref_dir), outputs_of(fault_dir));
    auto counters = parse_counters(load(fault_dir / dibella::cli::kCountersFile));
    EXPECT_GE(counters.at("comm_chunk_retries"), 2u);      // drop + corruptions
    EXPECT_GE(counters.at("comm_corrupt_chunks"), 2u);     // truncate + bitflip
    EXPECT_GE(counters.at("comm_chunk_redeliveries"), 1u); // duplicate
    EXPECT_NE(faulted.out.find("comm. chunk retries"), std::string::npos);
  }
}

TEST_F(FaultCli, FusedSgraphExchangeSelfHealsAndResumesByteIdentical) {
  // Stage 5 runs exactly two exchange rounds now — epoch 0 is the fused
  // contained+edge round, epoch 1 the ghost round (one batch each at this
  // size, under either schedule). Both
  // must (a) self-heal transport faults to byte-identical outputs and
  // (b) survive an abort at either epoch via checkpoint + --resume, pinned
  // against an unfaulted reference.
  const fs::path ref_dir = dir_ / "ref";
  DriverResult ref = run_driver(
      {"--preset=tiny", "--ranks=4", "--out-dir=" + ref_dir.string()});
  ASSERT_EQ(ref.exit_code, dibella::cli::kExitOk) << ref.err;
  const Outputs want = outputs_of(ref_dir);

  int case_index = 0;
  for (const char* fault :
       {"drop@sgraph:0", "bitflip@sgraph:0", "truncate@sgraph:1"}) {
    SCOPED_TRACE(fault);
    const fs::path cell = dir_ / ("heal" + std::to_string(case_index++));
    DriverResult healed = run_driver(
        {"--preset=tiny", "--ranks=4", "--overlap-comm=on",
         "--inject-fault=" + std::string(fault), "--out-dir=" + cell.string()});
    ASSERT_EQ(healed.exit_code, dibella::cli::kExitOk) << healed.err;
    expect_outputs_equal(want, outputs_of(cell));
    auto counters = parse_counters(load(cell / dibella::cli::kCountersFile));
    EXPECT_GE(counters.at("comm_chunk_retries"), 1u) << fault;
  }

  case_index = 0;
  for (const char* fault : {"abort@sgraph:0:1", "abort@sgraph:1:3"}) {
    SCOPED_TRACE(fault);
    const fs::path cell = dir_ / ("abort" + std::to_string(case_index++));
    const std::string ckpt = "--checkpoint-dir=" + (cell / "ckpt").string();
    // Bulk-synchronous schedule: one flush per round, so epoch 1 is the
    // ghost round.
    DriverResult aborted = run_driver(
        {"--preset=tiny", "--ranks=4", "--overlap-comm=off", ckpt,
         "--inject-fault=" + std::string(fault),
         "--out-dir=" + (cell / "aborted").string()});
    EXPECT_EQ(aborted.exit_code, dibella::cli::kExitCommFailure) << aborted.err;

    DriverResult resumed = run_driver(
        {"--preset=tiny", "--ranks=4", ckpt, "--resume",
         "--out-dir=" + (cell / "resumed").string()});
    ASSERT_EQ(resumed.exit_code, dibella::cli::kExitOk) << resumed.err;
    expect_outputs_equal(want, outputs_of(cell / "resumed"));
  }
}

// --- graceful degradation ----------------------------------------------------

TEST_F(FaultCli, DegradeFinishesWithHonestlyReducedEval) {
  const fs::path ref_dir = dir_ / "ref";
  DriverResult ref = run_driver(
      {"--preset=tiny", "--ranks=3", "--out-dir=" + ref_dir.string()});
  ASSERT_EQ(ref.exit_code, dibella::cli::kExitOk) << ref.err;
  const std::string ref_eval = load(ref_dir / dibella::cli::kEvalFile);
  EXPECT_EQ(ref_eval.find("degraded_ranks"), std::string::npos);

  const fs::path deg_dir = dir_ / "degraded";
  DriverResult degraded = run_driver(
      {"--preset=tiny", "--ranks=3",
       "--checkpoint-dir=" + (dir_ / "ckpt").string(),
       "--inject-fault=abort@align:0:2", "--on-rank-failure=degrade",
       "--out-dir=" + deg_dir.string()});
  ASSERT_EQ(degraded.exit_code, dibella::cli::kExitOk) << degraded.err;
  EXPECT_NE(degraded.out.find("degraded run"), std::string::npos) << degraded.out;
  EXPECT_NE(degraded.err.find("rank 2 failed"), std::string::npos) << degraded.err;

  // eval.tsv states the degradation and the honestly reduced result: the
  // lost shard's pairs are missing, never silently backfilled.
  const std::string deg_eval = load(deg_dir / dibella::cli::kEvalFile);
  EXPECT_EQ(eval_row(deg_eval, "run", "degraded_ranks"), 1u);
  const u64 ref_reported = eval_row(ref_eval, "overlap", "reported_pairs");
  const u64 deg_reported = eval_row(deg_eval, "overlap", "reported_pairs");
  EXPECT_GT(deg_reported, 0u);
  EXPECT_LT(deg_reported, ref_reported);
  EXPECT_LE(eval_row(deg_eval, "overlap", "true_positives"),
            eval_row(ref_eval, "overlap", "true_positives"));
}

TEST_F(FaultCli, DegradeBeforeAnyCheckpointStillFails) {
  // A rank lost before the first checkpoint completes leaves nothing to
  // salvage: degradation is refused and the run exits poisoned.
  DriverResult r = run_driver(
      {"--preset=tiny", "--ranks=3",
       "--checkpoint-dir=" + (dir_ / "ckpt").string(),
       "--inject-fault=abort@bloom:0:1", "--on-rank-failure=degrade",
       "--no-output"});
  EXPECT_EQ(r.exit_code, dibella::cli::kExitCommFailure);
  EXPECT_NE(r.err.find("cannot degrade"), std::string::npos) << r.err;
}
