// Observability layer tests: span tracer semantics (nesting, misuse,
// ring overflow), the counters.tsv writer and its determinism, the
// Chrome-trace export's structure, the profile report,
// the pin that pipeline outputs are byte-identical with span collection on
// or off, across rank counts, schedules, and block counts, and the pin that
// every kernel span carries exactly the units its compute segment holds.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/kernel_costs.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "eval/report.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"
#include "util/timer.hpp"

namespace obs = dibella::obs;
namespace dc = dibella::core;
using dibella::u32;
using dibella::u64;

namespace {

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

// --- span tracer ----------------------------------------------------------

TEST(ObsSpan, NestedSpansRecordBalancedBeginEndPairs) {
  obs::Trace trace(1);
  {
    obs::Span outer(&trace, 0, "outer");
    {
      obs::Span inner(&trace, 0, "inner");
      inner.arg("items", 7);
    }
    outer.arg("total", 1);
  }
  auto events = trace.lane(0).snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, obs::SpanEvent::Phase::kBegin);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[1].phase, obs::SpanEvent::Phase::kBegin);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, obs::SpanEvent::Phase::kEnd);
  EXPECT_STREQ(events[2].name, "inner");
  ASSERT_EQ(events[2].n_args, 1);
  EXPECT_STREQ(events[2].args[0].key, "items");
  EXPECT_EQ(events[2].args[0].value, 7u);
  EXPECT_EQ(events[3].phase, obs::SpanEvent::Phase::kEnd);
  EXPECT_STREQ(events[3].name, "outer");
  // Timestamps are monotone in push order (one shared clock).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_ns, events[i - 1].t_ns);
  }
  EXPECT_EQ(trace.lane(0).open_spans(), 0);
  EXPECT_EQ(trace.lane(0).unmatched_ends(), 0u);
}

TEST(ObsSpan, NullTraceSpanIsANoOp) {
  obs::Span s(nullptr, 0, "nothing");
  s.arg("k", 1);  // must not crash
  s.close();
}

TEST(ObsSpan, UnclosedSpanAtTeardownIsForceClosedAndCounted) {
  obs::Trace trace(2);
  {
    obs::SpanEvent ev;
    ev.phase = obs::SpanEvent::Phase::kBegin;
    ev.name = "leaky";
    ev.t_ns = trace.now_ns();
    trace.lane(1).push(ev);  // a span the rank never closed
  }
  EXPECT_EQ(trace.lane(1).open_spans(), 1);
  EXPECT_EQ(trace.finalize(), 1u);
  EXPECT_EQ(trace.unclosed_spans(), 1u);
  EXPECT_EQ(trace.lane(1).open_spans(), 0);
  auto events = trace.lane(1).snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].phase, obs::SpanEvent::Phase::kEnd);
  EXPECT_STREQ(events[1].name, "unclosed");
  ASSERT_EQ(events[1].n_args, 1);
  EXPECT_STREQ(events[1].args[0].key, "unclosed");
  // A second finalize is a no-op: everything is already closed.
  EXPECT_EQ(trace.finalize(), 0u);
}

TEST(ObsSpan, EndWithoutBeginCountsAsUnmatched) {
  obs::RankTimeline lane;
  obs::SpanEvent ev;
  ev.phase = obs::SpanEvent::Phase::kEnd;
  ev.name = "orphan";
  lane.push(ev);
  EXPECT_EQ(lane.unmatched_ends(), 1u);
  EXPECT_EQ(lane.open_spans(), 0);
}

TEST(ObsSpan, RingOverflowDropsOldestAndCounts) {
  obs::RankTimeline lane(4);
  for (u64 i = 0; i < 6; ++i) {
    obs::SpanEvent ev;
    ev.phase = obs::SpanEvent::Phase::kInstant;
    ev.name = "tick";
    ev.t_ns = i;
    lane.push(ev);
  }
  EXPECT_EQ(lane.dropped(), 2u);
  auto events = lane.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().t_ns, 2u);  // oldest two overwritten
  EXPECT_EQ(events.back().t_ns, 5u);
}

TEST(ObsSpan, AsyncIdsAreUniquePerLane) {
  obs::Trace trace(2);
  EXPECT_EQ(trace.lane(0).next_async_id(), 1u);
  EXPECT_EQ(trace.lane(0).next_async_id(), 2u);
  EXPECT_EQ(trace.lane(1).next_async_id(), 1u);  // per-lane counters
}

// --- pipeline integration -------------------------------------------------

namespace {

struct Artifacts {
  std::string paf, gfa, eval, counters;
};

dc::PipelineConfig obs_config(bool overlap_comm, bool spans, u32 blocks) {
  dc::PipelineConfig cfg;
  cfg.k = 17;
  cfg.assumed_error_rate = 0.12;  // matches the tiny_test preset
  cfg.assumed_coverage = 20.0;
  cfg.batch_kmers = 50'000;
  cfg.overlap_comm = overlap_comm;
  cfg.collect_spans = spans;
  cfg.blocks = blocks;
  cfg.stage5 = true;
  cfg.eval = true;
  cfg.eval_min_overlap = 500;
  return cfg;
}

Artifacts run_artifacts(const std::vector<dibella::io::Read>& reads,
                        std::shared_ptr<const dibella::io::TruthTable> truth,
                        int ranks, bool overlap_comm, bool spans, u32 blocks,
                        dc::PipelineOutput* keep = nullptr) {
  dibella::comm::World world(ranks);
  auto cfg = obs_config(overlap_comm, spans, blocks);
  auto out = run_pipeline(world, reads, cfg, truth);
  Artifacts art;
  {
    std::ostringstream paf;
    auto source = out.alignment_source();
    dc::write_paf(paf, *source, reads, cfg.sgraph_fuzz);
    art.paf = paf.str();
  }
  {
    std::ostringstream gfa;
    dibella::sgraph::write_gfa(gfa, out.string_graph.surviving_edges, reads);
    art.gfa = gfa.str();
  }
  if (out.eval_ran) {
    std::ostringstream ev;
    dibella::eval::write_eval_tsv(ev, out.eval);
    art.eval = ev.str();
  }
  {
    std::ostringstream cs;
    out.write_counters_tsv(cs);
    art.counters = cs.str();
  }
  if (keep) *keep = std::move(out);
  return art;
}

}  // namespace

TEST(ObsPipeline, TracingOnOffOutputsByteIdenticalAcrossRanksAndSchedules) {
  // The tentpole invariant: collecting spans must not perturb any output
  // byte — PAF, GFA, eval, and the metrics dump — for every rank count and
  // both schedules.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  Artifacts baseline;  // spans off, 1 rank, overlapped schedule
  bool have_baseline = false;
  for (int ranks : {1, 2, 3, 5}) {
    for (bool overlap_comm : {true, false}) {
      Artifacts off = run_artifacts(sim.reads, truth, ranks, overlap_comm,
                                    /*spans=*/false, /*blocks=*/1);
      Artifacts on = run_artifacts(sim.reads, truth, ranks, overlap_comm,
                                   /*spans=*/true, /*blocks=*/1);
      const std::string label = "ranks=" + std::to_string(ranks) +
                                " overlap_comm=" + std::to_string(overlap_comm);
      EXPECT_EQ(off.paf, on.paf) << label;
      EXPECT_EQ(off.gfa, on.gfa) << label;
      EXPECT_EQ(off.eval, on.eval) << label;
      ASSERT_FALSE(off.eval.empty()) << label;
      if (!have_baseline) {
        baseline = off;
        have_baseline = true;
      } else {
        // And the outputs themselves are rank/schedule invariant.
        EXPECT_EQ(baseline.paf, off.paf) << label;
        EXPECT_EQ(baseline.gfa, off.gfa) << label;
        EXPECT_EQ(baseline.eval, off.eval) << label;
      }
    }
  }
}

TEST(ObsPipeline, TracingOnOffByteIdenticalInBlockMode) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  Artifacts off = run_artifacts(sim.reads, truth, 3, /*overlap_comm=*/true,
                                /*spans=*/false, /*blocks=*/4);
  Artifacts on = run_artifacts(sim.reads, truth, 3, /*overlap_comm=*/true,
                               /*spans=*/true, /*blocks=*/4);
  EXPECT_EQ(off.paf, on.paf);
  EXPECT_EQ(off.gfa, on.gfa);
  EXPECT_EQ(off.eval, on.eval);
}

TEST(ObsPipeline, MetricsDumpIsByteStableRunOverRun) {
  // counters.tsv's determinism contract: values depend only on (input,
  // config) — two identical runs write identical bytes.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  Artifacts a = run_artifacts(sim.reads, truth, 3, true, true, 1);
  Artifacts b = run_artifacts(sim.reads, truth, 3, true, true, 1);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.counters.rfind("#schema=2\n", 0), 0u);
}

TEST(ObsPipeline, CountersTsvHasOneSortedRowPerCounter) {
  // Every PipelineCounters field, by its row name.
  using Field = u64 dc::PipelineCounters::*;
  const std::map<std::string, Field> fields = {
      {"kmers_parsed", &dc::PipelineCounters::kmers_parsed},
      {"candidate_keys", &dc::PipelineCounters::candidate_keys},
      {"sketch_windows", &dc::PipelineCounters::sketch_windows},
      {"sketch_seeds_kept", &dc::PipelineCounters::sketch_seeds_kept},
      {"retained_kmers", &dc::PipelineCounters::retained_kmers},
      {"purged_keys", &dc::PipelineCounters::purged_keys},
      {"overlap_tasks", &dc::PipelineCounters::overlap_tasks},
      {"read_pairs", &dc::PipelineCounters::read_pairs},
      {"seeds_after_filter", &dc::PipelineCounters::seeds_after_filter},
      {"reads_exchanged", &dc::PipelineCounters::reads_exchanged},
      {"read_bytes_exchanged", &dc::PipelineCounters::read_bytes_exchanged},
      {"pairs_aligned", &dc::PipelineCounters::pairs_aligned},
      {"alignments_computed", &dc::PipelineCounters::alignments_computed},
      {"dp_cells", &dc::PipelineCounters::dp_cells},
      {"alignments_reported", &dc::PipelineCounters::alignments_reported},
      {"chain_anchors", &dc::PipelineCounters::chain_anchors},
      {"chain_dropped_seeds", &dc::PipelineCounters::chain_dropped_seeds},
      {"sg_contained_reads", &dc::PipelineCounters::sg_contained_reads},
      {"sg_internal_records", &dc::PipelineCounters::sg_internal_records},
      {"sg_dovetail_edges", &dc::PipelineCounters::sg_dovetail_edges},
      {"sg_edges_removed", &dc::PipelineCounters::sg_edges_removed},
      {"sg_edges_surviving", &dc::PipelineCounters::sg_edges_surviving},
      {"sg_unitigs", &dc::PipelineCounters::sg_unitigs},
      {"sg_components", &dc::PipelineCounters::sg_components},
      {"peak_resident_read_bytes", &dc::PipelineCounters::peak_resident_read_bytes},
      {"packed_read_bytes", &dc::PipelineCounters::packed_read_bytes},
      {"block_loads", &dc::PipelineCounters::block_loads},
      {"block_evictions", &dc::PipelineCounters::block_evictions},
      {"spill_bytes", &dc::PipelineCounters::spill_bytes},
      {"spill_runs", &dc::PipelineCounters::spill_runs},
      {"comm_chunk_retries", &dc::PipelineCounters::comm_chunk_retries},
      {"comm_chunk_redeliveries", &dc::PipelineCounters::comm_chunk_redeliveries},
      {"comm_corrupt_chunks", &dc::PipelineCounters::comm_corrupt_chunks},
      {"ranks", &dc::PipelineCounters::ranks},
  };
  // The map's 34 u64 fields plus max_kmer_count (u32, padded).
  static_assert(sizeof(dc::PipelineCounters) == 35 * sizeof(u64),
                "a new PipelineCounters field needs a counters.tsv row and an entry here");

  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  const std::string ckpt_dir = ::testing::TempDir() + "/dibella_obs_counters_ckpt";
  std::filesystem::remove_all(ckpt_dir);
  for (bool checkpointed : {false, true}) {
    SCOPED_TRACE(checkpointed ? "checkpoint_dir set" : "no checkpoint_dir");
    dibella::comm::World world(2);
    auto cfg = obs_config(true, /*spans=*/false, /*blocks=*/2);
    cfg.eval = false;  // no truth table in this test
    if (checkpointed) cfg.checkpoint_dir = ckpt_dir;
    const auto out = run_pipeline(world, sim.reads, cfg);
    ASSERT_EQ(out.checkpoint_io.has_value(), checkpointed);

    std::ostringstream os;
    out.write_counters_tsv(os);
    std::istringstream lines(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "#schema=2");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "counter\tvalue");
    std::vector<std::string> names;
    std::map<std::string, u64> rows;
    while (std::getline(lines, line)) {
      const auto tab = line.find('\t');
      ASSERT_NE(tab, std::string::npos) << line;
      names.push_back(line.substr(0, tab));
      rows[names.back()] = std::stoull(line.substr(tab + 1));
    }
    for (std::size_t i = 1; i < names.size(); ++i) {
      EXPECT_LT(names[i - 1], names[i]) << "rows not strictly ascending";
    }

    const dc::PipelineCounters& c = out.counters;
    std::map<std::string, u64> want;
    for (const auto& [name, field] : fields) want[name] = c.*field;
    want["max_kmer_count"] = c.max_kmer_count;
    want["sketch_density_ppm"] = c.sketch_seeds_kept * 1'000'000 / c.sketch_windows;
    if (checkpointed) {
      want["checkpoint_payloads_written"] = out.checkpoint_io->payloads_written;
      want["checkpoint_bytes_written"] = out.checkpoint_io->bytes_written;
      want["checkpoint_payloads_read"] = out.checkpoint_io->payloads_read;
      want["checkpoint_bytes_read"] = out.checkpoint_io->bytes_read;
      EXPECT_GT(out.checkpoint_io->payloads_written, 0u);
    }
    EXPECT_EQ(rows, want);
    EXPECT_EQ(rows.count("spill_write_bytes"), 0u);
  }
  std::filesystem::remove_all(ckpt_dir);
}

TEST(ObsPipeline, ChromeTraceExportHasPerRankTracksAndAsyncExchanges) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  dc::PipelineOutput out;
  run_artifacts(sim.reads, truth, 3, /*overlap_comm=*/true, /*spans=*/true, 1,
                &out);
  ASSERT_TRUE(out.span_trace != nullptr);
  EXPECT_EQ(out.span_trace->ranks(), 3);
  EXPECT_EQ(out.span_trace->unclosed_spans(), 0u);
  EXPECT_EQ(out.span_trace->dropped_events(), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(os, *out.span_trace);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One named track per rank.
  for (int r = 0; r < 3; ++r) {
    const std::string track = "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                              "\"tid\":" + std::to_string(r);
    EXPECT_NE(json.find(track), std::string::npos) << track;
  }
  // Stage spans and async exchange windows made it out, with span args.
  EXPECT_NE(json.find("\"name\":\"stage:bloom\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"exchange:inflight\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"exchange\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"retries\":"), std::string::npos);
  // Async begin/end events pair up.
  EXPECT_EQ(count_of(json, "\"ph\":\"b\""), count_of(json, "\"ph\":\"e\""));
  // Duration events balance.
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), count_of(json, "\"ph\":\"E\""));
}

TEST(ObsPipeline, ProfileReportCoversStagesAndCriticalPath) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  dc::PipelineOutput out;
  run_artifacts(sim.reads, truth, 3, /*overlap_comm=*/true, /*spans=*/true, 1,
                &out);
  ASSERT_TRUE(out.span_trace != nullptr);
  const auto report = out.span_trace
                          ? obs::build_profile(*out.span_trace, 0.0)
                          : obs::ProfileReport{};
  EXPECT_EQ(report.ranks, 3);
  ASSERT_EQ(report.stages.size(), 5u);  // bloom, ht, overlap, align, sgraph
  EXPECT_EQ(report.stages[0].name, "bloom");
  EXPECT_EQ(report.stages[4].name, "sgraph");
  double sum_max = 0.0;
  for (const auto& s : report.stages) {
    ASSERT_EQ(s.rank_wall_s.size(), 3u) << s.name;
    EXPECT_GT(s.wall_max_s, 0.0) << s.name;
    EXPECT_GE(s.imbalance(), 1.0) << s.name;
    EXPECT_GE(s.crit_rank, 0);
    EXPECT_LT(s.crit_rank, 3);
    sum_max += s.wall_max_s;
  }
  EXPECT_DOUBLE_EQ(report.critical_path_s, sum_max);
  EXPECT_LE(report.balanced_path_s, report.critical_path_s + 1e-12);
  EXPECT_FALSE(report.hottest.empty());
  EXPECT_EQ(report.unclosed_spans, 0u);
  EXPECT_EQ(report.unmatched_ends, 0u);

  // The TSV artifact is schema-versioned with the fixed 4-column layout.
  std::ostringstream tsv;
  obs::write_profile_tsv(tsv, report);
  const std::string text = tsv.str();
  EXPECT_EQ(text.rfind("#schema=2\n", 0), 0u);
  EXPECT_NE(text.find("section\tkey\tmetric\tvalue"), std::string::npos);
  EXPECT_NE(text.find("run\tall\tcritical_path_s\t"), std::string::npos);
  EXPECT_NE(text.find("stage\tbloom\twall_max_s\t"), std::string::npos);
  EXPECT_NE(text.find("stage_rank\tbloom.r0\twall_s\t"), std::string::npos);

  // Each stage span closes with the process's peak RSS so far: positive,
  // and never lower for a later stage.
  u64 previous = 0;
  for (const auto& s : report.stages) {
    EXPECT_GE(s.rss_hwm_kb, previous) << s.name;
    EXPECT_GT(s.rss_hwm_kb, 0u) << s.name;
    previous = s.rss_hwm_kb;
    EXPECT_NE(text.find("stage\t" + s.name + "\trss_hwm_mb\t"), std::string::npos) << s.name;
  }
}

TEST(ObsPipeline, CalibrationSecondsReachTheProfile) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  dibella::util::WallTimer timer;
  dc::measure_kernel_costs(2);
  const double calibration_s = timer.seconds();
  dc::PipelineOutput out;
  run_artifacts(sim.reads, truth, 2, /*overlap_comm=*/true, /*spans=*/true, 1, &out);

  ASSERT_TRUE(out.span_trace != nullptr);
  const auto report = obs::build_profile(*out.span_trace, calibration_s);
  EXPECT_EQ(report.calibration_s, calibration_s);
  std::ostringstream tsv;
  obs::write_profile_tsv(tsv, report);
  const std::string key = "run\tall\tcalibration_s\t";
  const std::string text = tsv.str();
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_NEAR(std::stod(text.substr(at + key.size())), calibration_s, 1e-6);
  std::ostringstream table;
  obs::print_profile(table, report);
  EXPECT_NE(table.str().find("calibration"), std::string::npos);
}

TEST(ObsPipeline, SpansOffMeansNoTraceAllocated) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::comm::World world(2);
  auto cfg = obs_config(true, /*spans=*/false, 1);
  cfg.eval = false;  // no truth table in this test
  auto out = run_pipeline(world, sim.reads, cfg);
  EXPECT_TRUE(out.span_trace == nullptr);
  // Counters are always collected.
  std::ostringstream counters;
  out.write_counters_tsv(counters);
  EXPECT_NE(counters.str().find("\nalignments_reported\t"), std::string::npos);
}

// --- kernel batches: one instrumentation call ------------------------------

namespace {

using dibella::netsim::Kernel;

/// A kernel span's modeled tag and the kernel each of its unit args counts
/// (any other arg is a plain annotation).
struct KernelSpec {
  std::string tag;
  std::map<std::string, Kernel> units;
};

const std::map<std::string, KernelSpec>& kernel_specs() {
  using K = Kernel;
  static const std::map<std::string, KernelSpec> specs = {
      {"bloom:pack", {"bloom:pack", {{"windows", K::kParse}}}},
      {"bloom:insert",
       {"bloom:local", {{"kmers", K::kBloomInsert}, {"hits", K::kTableInsert}}}},
      {"ht:pack", {"ht:pack", {{"windows", K::kParse}}}},
      {"ht:insert", {"ht:local", {{"instances", K::kTableInsert}}}},
      {"ht:purge", {"ht:local", {{"keys", K::kTableTraverse}}}},
      {"overlap:traverse",
       {"overlap:traverse", {{"keys", K::kTableTraverse}, {"bytes", K::kByteCopy}}}},
      {"overlap:recv", {"overlap:recv", {{"bytes", K::kByteCopy}}}},
      {"overlap:consolidate", {"overlap:consolidate", {{"tasks", K::kPairRuns}}}},
      {"align:pack",
       {"align:pack", {{"tasks", K::kPairConsolidate}, {"bytes", K::kByteCopy}}}},
      {"align:cache", {"align:cache", {{"bytes", K::kByteCopy}}}},
      {"align:extend",
       {"align:compute", {{"cells", K::kXdropCell}, {"bytes", K::kByteCopy}}}},
      {"sgraph:classify", {"sgraph:classify", {{"records", K::kPairConsolidate}}}},
      {"sgraph:pack", {"sgraph:pack", {{"bytes", K::kByteCopy}}}},
      {"sgraph:build",
       {"sgraph:build", {{"bytes", K::kByteCopy}, {"edges", K::kPairConsolidate}}}},
      {"sgraph:csr", {"sgraph:csr", {{"nonzeros", K::kPairConsolidate}}}},
      {"sgraph:reduce", {"sgraph:reduce", {{"probes", K::kGraphProbe}}}},
      {"sgraph:walk", {"sgraph:walk", {{"vertices", K::kPairConsolidate}}}},
  };
  return specs;
}

/// Whether a closed span is a kernel batch. Every other `<stage>:<name>` span
/// is a stage, exchange, I/O, or exchange-wrapping span.
bool is_kernel_span(const char* name) {
  static const std::set<std::string> wrappers = {
      "align:read_exchange", "sgraph:edge_exchange", "sgraph:ghost_exchange"};
  if (std::strchr(name, ':') == nullptr || wrappers.count(name) != 0) return false;
  for (const char* prefix : {"stage:", "exchange:", "spill:", "checkpoint:"}) {
    if (std::strncmp(name, prefix, std::strlen(prefix)) == 0) return false;
  }
  return true;
}

/// The rank's kernel spans map one-to-one, in order, onto its compute
/// segments, and each segment holds exactly the units of its span's unit
/// args, each under the kernel it counts.
void expect_spans_match_segments(const obs::RankTimeline& lane,
                                 const dibella::netsim::RankTrace& trace,
                                 const std::string& where) {
  std::vector<obs::SpanEvent> kernels;
  for (const obs::SpanEvent& ev : lane.snapshot()) {
    if (ev.phase != obs::SpanEvent::Phase::kEnd || !is_kernel_span(ev.name)) continue;
    ASSERT_EQ(kernel_specs().count(ev.name), 1u) << where << ": unmapped " << ev.name;
    kernels.push_back(ev);
  }
  std::vector<dibella::netsim::TraceEvent> segments;
  for (const auto& ev : trace.events()) {
    if (ev.kind == dibella::netsim::TraceEvent::Kind::kCompute) segments.push_back(ev);
  }
  ASSERT_EQ(kernels.size(), segments.size()) << where;
  ASSERT_FALSE(segments.empty()) << where;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelSpec& spec = kernel_specs().at(kernels[i].name);
    EXPECT_EQ(segments[i].stage, spec.tag) << where << " #" << i << " " << kernels[i].name;
    dibella::netsim::KernelUnits units{};
    int unit_args = 0;
    for (int a = 0; a < kernels[i].n_args; ++a) {
      const auto it = spec.units.find(kernels[i].args[a].key);
      if (it == spec.units.end()) continue;
      units[it->second] += kernels[i].args[a].value;
      ++unit_args;
    }
    EXPECT_GE(unit_args, 1) << where << " #" << i << " " << kernels[i].name;
    EXPECT_TRUE(segments[i].units == units) << where << " #" << i << " " << kernels[i].name;
  }
}

}  // namespace

TEST(ObsPipeline, KernelSpansCarryTheUnitsOfTheirComputeSegments) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  for (int ranks : {1, 3}) {
    for (bool overlap_comm : {true, false}) {
      const std::string where = "ranks=" + std::to_string(ranks) +
                                " overlap_comm=" + std::to_string(overlap_comm);
      dc::PipelineOutput out;
      run_artifacts(sim.reads, truth, ranks, overlap_comm, /*spans=*/true, 1, &out);
      ASSERT_TRUE(out.span_trace != nullptr);
      EXPECT_EQ(out.span_trace->dropped_events(), 0u) << where;
      ASSERT_EQ(out.traces.size(), static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        expect_spans_match_segments(out.span_trace->lane(r),
                                    out.traces[static_cast<std::size_t>(r)],
                                    where + " rank=" + std::to_string(r));
      }
    }
  }
}
