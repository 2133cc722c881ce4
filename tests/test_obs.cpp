// Observability layer tests: span tracer semantics (nesting, misuse,
// ring overflow), log-histogram bucket boundaries, registry dump
// determinism, the Chrome-trace export's structure, the profile report,
// the pin that pipeline outputs are byte-identical with span collection on
// or off, across rank counts, schedules, and block counts, and the pin that
// every kernel span carries exactly the units its modeled compute segment
// was costed from.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
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
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "sgraph/unitig.hpp"
#include "simgen/presets.hpp"

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

// --- histogram ------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreLog2) {
  using H = obs::LogHistogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);
  EXPECT_EQ(H::bucket_of(7), 3);
  EXPECT_EQ(H::bucket_of(8), 4);
  EXPECT_EQ(H::bucket_of((u64{1} << 63) - 1), 63);
  EXPECT_EQ(H::bucket_of(u64{1} << 63), 64);
  EXPECT_EQ(H::bucket_of(~u64{0}), 64);

  EXPECT_EQ(H::bucket_upper(0), 0u);
  EXPECT_EQ(H::bucket_upper(1), 1u);
  EXPECT_EQ(H::bucket_upper(2), 3u);
  EXPECT_EQ(H::bucket_upper(3), 7u);
  EXPECT_EQ(H::bucket_upper(64), ~u64{0});

  // Every value lands inside its own bucket's bounds.
  for (u64 v : {u64{0}, u64{1}, u64{2}, u64{3}, u64{4}, u64{100}, u64{65536}}) {
    const int b = H::bucket_of(v);
    EXPECT_LE(v, H::bucket_upper(b)) << v;
    if (b > 1) {
      EXPECT_GT(v, H::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(ObsHistogram, AddAccumulatesCountAndSum) {
  obs::LogHistogram h;
  h.add(0);
  h.add(5);
  h.add(5);
  h.add(1000, 3);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 5 + 5 + 3000);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(obs::LogHistogram::bucket_of(5)), 2u);
  EXPECT_EQ(h.bucket_count(obs::LogHistogram::bucket_of(1000)), 3u);
}

// --- registry -------------------------------------------------------------

TEST(ObsRegistry, DumpIsDeterministicAndLabelOrderCanonical) {
  // Two registries populated in different orders, with label pairs given in
  // different orders, must dump byte-identically.
  obs::Registry a;
  a.counter("zeta").add(1);
  a.counter("alpha", {{"stage", "bloom"}, {"kind", "bytes"}}).add(9);
  a.gauge("peak").set_max(42);

  obs::Registry b;
  b.gauge("peak").set_max(42);
  b.counter("alpha", {{"kind", "bytes"}, {"stage", "bloom"}}).add(9);
  b.counter("zeta").add(1);

  std::ostringstream da, db;
  a.dump_tsv(da);
  b.dump_tsv(db);
  EXPECT_EQ(da.str(), db.str());
  // Schema header first, then the legacy column header.
  EXPECT_EQ(da.str().rfind("#schema=2\ncounter\tvalue\n", 0), 0u);
  EXPECT_NE(da.str().find("alpha{kind=bytes,stage=bloom}\t9"), std::string::npos);
}

TEST(ObsRegistry, SameIdentityReturnsSameInstrument) {
  obs::Registry r;
  r.counter("c", {{"a", "1"}, {"b", "2"}}).add(5);
  r.counter("c", {{"b", "2"}, {"a", "1"}}).add(5);
  EXPECT_EQ(r.counter("c", {{"a", "1"}, {"b", "2"}}).value(), 10u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(ObsRegistry, MergeAddsCountersAndMaxesGauges) {
  obs::Registry a, b;
  a.counter("n").add(3);
  b.counter("n").add(4);
  a.gauge("peak").set(10);
  b.gauge("peak").set(7);
  a.histogram("h").add(2);
  b.histogram("h").add(900);
  a.merge(b);
  EXPECT_EQ(a.counter("n").value(), 7u);
  EXPECT_EQ(a.gauge("peak").value(), 10u);
  EXPECT_EQ(a.histogram("h").total_count(), 2u);
  EXPECT_EQ(a.histogram("h").sum(), 902u);
}

TEST(ObsRegistry, HistogramDumpsCumulativeBucketsCountAndSum) {
  obs::Registry r;
  r.histogram("bytes").add(0);
  r.histogram("bytes").add(5);
  std::ostringstream os;
  r.dump_tsv(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("bytes{le=0}\t1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("bytes{le=7}\t2"), std::string::npos) << dump;  // cumulative
  EXPECT_NE(dump.find("bytes_count\t2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("bytes_sum\t5"), std::string::npos) << dump;
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
    out.metrics.dump_tsv(cs);
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
  // The registry's determinism contract: values depend only on (input,
  // config) — two identical runs dump identical bytes, and the dump is also
  // schedule-invariant.
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  Artifacts a = run_artifacts(sim.reads, truth, 3, true, true, 1);
  Artifacts b = run_artifacts(sim.reads, truth, 3, true, true, 1);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.counters.rfind("#schema=2\n", 0), 0u);
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
                          ? obs::build_profile(*out.span_trace, out.calibration_s)
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
}

TEST(ObsPipeline, CalibrationSecondsReachTheProfile) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  auto truth = std::make_shared<const dibella::io::TruthTable>(
      dibella::simgen::truth_table(sim));
  dc::PipelineOutput first;
  dc::PipelineOutput second;
  run_artifacts(sim.reads, truth, 2, /*overlap_comm=*/true, /*spans=*/true, 1, &first);
  run_artifacts(sim.reads, truth, 2, /*overlap_comm=*/true, /*spans=*/true, 1, &second);
  // The costs are cached for the process after the first call.
  EXPECT_LT(second.calibration_s, 1e-3);

  ASSERT_TRUE(first.span_trace != nullptr);
  const auto report = obs::build_profile(*first.span_trace, first.calibration_s);
  EXPECT_EQ(report.calibration_s, first.calibration_s);
  std::ostringstream tsv;
  obs::write_profile_tsv(tsv, report);
  const std::string key = "run\tall\tcalibration_s\t";
  const std::string text = tsv.str();
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_NEAR(std::stod(text.substr(at + key.size())), first.calibration_s, 1e-6);
  std::ostringstream table;
  obs::print_profile(table, report);
  EXPECT_NE(table.str().find("calibration"), std::string::npos);
}

TEST(ObsPipelineDeathTest, FirstPipelineOfAProcessTimesTheCalibration) {
  // The "threadsafe" style re-executes the test binary for the statement, so
  // it runs in a process whose kernel costs are not cached yet, whatever ran
  // before this test.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(
      {
        auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
        auto truth = std::make_shared<const dibella::io::TruthTable>(
            dibella::simgen::truth_table(sim));
        dc::PipelineOutput out;
        run_artifacts(sim.reads, truth, 2, /*overlap_comm=*/true, /*spans=*/false, 1, &out);
        // Fixed-work calibration takes ~0.1 s; a cached lookup takes ns.
        std::exit(out.calibration_s > 1e-3 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ObsPipeline, SpansOffMeansNoTraceAllocated) {
  auto sim = dibella::simgen::make_dataset(dibella::simgen::tiny_test());
  dibella::comm::World world(2);
  auto cfg = obs_config(true, /*spans=*/false, 1);
  cfg.eval = false;  // no truth table in this test
  auto out = run_pipeline(world, sim.reads, cfg);
  EXPECT_TRUE(out.span_trace == nullptr);
  EXPECT_GT(out.metrics.size(), 0u);  // metrics are always collected
}

// --- kernel batches: one instrumentation call ------------------------------

namespace {

using Cost = double dc::KernelCosts::*;

/// A kernel span's modeled tag and the per-unit cost of each of its unit
/// args (any other arg is a plain annotation).
struct KernelSpec {
  std::string tag;
  std::map<std::string, Cost> units;
};

const std::map<std::string, KernelSpec>& kernel_specs() {
  using K = dc::KernelCosts;
  static const std::map<std::string, KernelSpec> specs = {
      {"bloom:pack", {"bloom:pack", {{"windows", &K::parse_per_kmer}}}},
      {"bloom:insert",
       {"bloom:local", {{"kmers", &K::bloom_insert}, {"hits", &K::table_insert}}}},
      {"ht:pack", {"ht:pack", {{"windows", &K::parse_per_kmer}}}},
      {"ht:insert", {"ht:local", {{"instances", &K::table_insert}}}},
      {"ht:purge", {"ht:local", {{"keys", &K::table_traverse}}}},
      {"overlap:traverse",
       {"overlap:traverse", {{"keys", &K::table_traverse}, {"bytes", &K::per_byte_copy}}}},
      {"overlap:recv", {"overlap:recv", {{"bytes", &K::per_byte_copy}}}},
      {"overlap:consolidate", {"overlap:consolidate", {{"tasks", &K::pair_runs}}}},
      {"align:pack",
       {"align:pack", {{"tasks", &K::pair_consolidate}, {"bytes", &K::per_byte_copy}}}},
      {"align:cache", {"align:cache", {{"bytes", &K::per_byte_copy}}}},
      {"align:extend",
       {"align:compute", {{"cells", &K::xdrop_per_cell}, {"bytes", &K::per_byte_copy}}}},
      {"sgraph:classify", {"sgraph:classify", {{"records", &K::pair_consolidate}}}},
      {"sgraph:pack", {"sgraph:pack", {{"bytes", &K::per_byte_copy}}}},
      {"sgraph:build",
       {"sgraph:build", {{"bytes", &K::per_byte_copy}, {"edges", &K::pair_consolidate}}}},
      {"sgraph:csr", {"sgraph:csr", {{"nonzeros", &K::pair_consolidate}}}},
      {"sgraph:reduce", {"sgraph:reduce", {{"probes", &K::graph_probe}}}},
      {"sgraph:walk", {"sgraph:walk", {{"vertices", &K::pair_consolidate}}}},
  };
  return specs;
}

/// Whether a closed span is a kernel batch. Every other `<stage>:<name>` span
/// is a stage, exchange, I/O, or exchange-wrapping span.
bool is_kernel_span(const char* name) {
  static const std::set<std::string> wrappers = {
      "align:read_exchange", "sgraph:edge_exchange", "sgraph:ghost_exchange"};
  if (std::strchr(name, ':') == nullptr || wrappers.count(name) != 0) return false;
  for (const char* prefix : {"stage:", "exchange:", "collective:", "spill:", "checkpoint:"}) {
    if (std::strncmp(name, prefix, std::strlen(prefix)) == 0) return false;
  }
  return true;
}

/// The rank's kernel spans map one-to-one, in order, onto its compute
/// segments, and each segment's cpu seconds are exactly the sum of the
/// span's unit args times their per-unit costs, summed in arg order.
void expect_spans_match_segments(const obs::RankTimeline& lane,
                                 const dibella::netsim::RankTrace& trace,
                                 const std::string& where) {
  const dc::KernelCosts& costs = dc::KernelCosts::get();
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
    double cpu_seconds = 0.0;
    int unit_args = 0;
    for (int a = 0; a < kernels[i].n_args; ++a) {
      const auto it = spec.units.find(kernels[i].args[a].key);
      if (it == spec.units.end()) continue;
      cpu_seconds += static_cast<double>(kernels[i].args[a].value) * (costs.*(it->second));
      ++unit_args;
    }
    EXPECT_GE(unit_args, 1) << where << " #" << i << " " << kernels[i].name;
    EXPECT_EQ(segments[i].cpu_seconds, cpu_seconds)
        << where << " #" << i << " " << kernels[i].name;
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
