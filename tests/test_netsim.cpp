// Tests for the netsim module: platform presets, topology, the cache-aware
// compute scaling, the alpha-beta exchange model, and full trace evaluation.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/communicator.hpp"
#include "comm/exchanger.hpp"
#include "comm/world.hpp"
#include "netsim/cost_model.hpp"
#include "netsim/platform.hpp"
#include "netsim/rank_trace.hpp"

namespace dn = dibella::netsim;
namespace dc = dibella::comm;
using dibella::u64;

namespace {

/// Build a P-rank exchange record set where rank r sends bytes[r][d] to d.
std::vector<dc::ExchangeRecord> make_alltoallv(
    const std::vector<std::vector<u64>>& bytes, const std::string& stage = "s") {
  std::vector<dc::ExchangeRecord> recs(bytes.size());
  for (std::size_t r = 0; r < bytes.size(); ++r) {
    recs[r].stage = stage;
    recs[r].bytes_to_peer = bytes[r];
    recs[r].seq = 0;
  }
  return recs;
}

/// `n` units of one kernel; priced at kSecondPerUnit, n seconds.
dn::KernelUnits units(u64 n) {
  dn::KernelUnits u{};
  u[dn::Kernel::kParse] = n;
  return u;
}

/// Every kernel's units priced at `seconds` each.
dn::KernelCosts costs_of(double seconds) {
  dn::KernelCosts c{};
  c.fill(seconds);
  return c;
}

const dn::KernelCosts kSecondPerUnit = costs_of(1.0);

}  // namespace

TEST(Platform, Table1PresetsMatchPaper) {
  auto platforms = dn::table1_platforms();
  ASSERT_EQ(platforms.size(), 4u);
  EXPECT_EQ(platforms[0].cores_per_node, 32);  // Cori
  EXPECT_EQ(platforms[1].cores_per_node, 24);  // Edison
  EXPECT_EQ(platforms[2].cores_per_node, 16);  // Titan
  EXPECT_EQ(platforms[3].cores_per_node, 16);  // AWS
  // Table 1 BW/node ordering: Edison >> Cori > Titan; AWS estimated lowest.
  EXPECT_GT(platforms[1].node_bw_bytes_per_s, platforms[0].node_bw_bytes_per_s);
  EXPECT_GT(platforms[0].node_bw_bytes_per_s, platforms[2].node_bw_bytes_per_s);
  EXPECT_GT(platforms[2].node_bw_bytes_per_s, platforms[3].node_bw_bytes_per_s);
  // Latency: Edison lowest among Crays (0.8us); AWS far above all.
  EXPECT_LT(platforms[1].inter_latency_s, platforms[2].inter_latency_s);
  EXPECT_LT(platforms[2].inter_latency_s, platforms[0].inter_latency_s);
  EXPECT_GT(platforms[3].inter_latency_s, 10 * platforms[0].inter_latency_s);
  // Per-core speed: Cori fastest; Titan and AWS comparable (paper §5).
  EXPECT_LT(platforms[0].core_time_factor, platforms[1].core_time_factor);
  EXPECT_NEAR(platforms[2].core_time_factor, platforms[3].core_time_factor, 0.3);
}

TEST(Topology, NodePlacement) {
  dn::Topology topo{4, 8};
  EXPECT_EQ(topo.total_ranks(), 32);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(7), 0);
  EXPECT_EQ(topo.node_of(8), 1);
  EXPECT_EQ(topo.node_of(31), 3);
  EXPECT_TRUE(topo.same_node(0, 7));
  EXPECT_FALSE(topo.same_node(7, 8));
}

TEST(TopLevelStage, StripsSubTag) {
  EXPECT_EQ(dn::top_level_stage("bloom:pack"), "bloom");
  EXPECT_EQ(dn::top_level_stage("bloom"), "bloom");
  EXPECT_EQ(dn::top_level_stage(""), "");
}

TEST(CostModel, ComputeScaleCacheBehaviour) {
  auto p = dn::cori();
  dn::CostModel model(p, dn::Topology{1, 32});
  double cache_share = p.llc_bytes_per_node / 32.0;
  // Fits in cache: just the core factor.
  EXPECT_DOUBLE_EQ(model.compute_scale(static_cast<u64>(cache_share / 2)),
                   p.core_time_factor);
  // Monotone growth beyond the share, bounded by the penalty cap.
  double s2 = model.compute_scale(static_cast<u64>(2 * cache_share));
  double s8 = model.compute_scale(static_cast<u64>(8 * cache_share));
  EXPECT_GT(s2, p.core_time_factor);
  EXPECT_GT(s8, s2);
  EXPECT_LT(s8, p.core_time_factor * p.cache_miss_penalty);
  // Fewer ranks per node -> bigger share -> smaller penalty at equal ws.
  dn::CostModel spread(p, dn::Topology{32, 1});
  EXPECT_LT(spread.compute_scale(static_cast<u64>(2 * cache_share)), s2);
}

TEST(CostModel, ComputeScaleDisabledOnLocalHost) {
  dn::CostModel model(dn::local_host(), dn::Topology{1, 4});
  EXPECT_DOUBLE_EQ(model.compute_scale(1u << 30), 1.0);
}

TEST(CostModel, ExchangeIntraNodeOnly) {
  auto p = dn::cori();
  dn::CostModel model(p, dn::Topology{1, 2});
  // 2 ranks, same node: 1 MB each way.
  auto recs = make_alltoallv({{0, 1'000'000}, {1'000'000, 0}});
  std::vector<double> per_rank;
  double t = model.exchange_time(recs, false, &per_rank);
  double expect = p.intra_latency_s + 2e6 / p.intra_bw_bytes_per_s_per_rank;
  EXPECT_NEAR(t, expect, 1e-9);
  EXPECT_NEAR(per_rank[0], expect, 1e-9);
}

TEST(CostModel, ExchangeInterNodeUsesNodeBandwidth) {
  auto p = dn::cori();
  dn::CostModel model(p, dn::Topology{2, 1});
  auto recs = make_alltoallv({{0, 8'000'000}, {0, 0}});  // 8 MB rank0 -> rank1
  double t = model.exchange_time(recs, false);
  // One inter-node message: latency + bytes / (node_bw / 1 rank-per-node).
  double expect = p.inter_latency_s + 8e6 / p.node_bw_bytes_per_s;
  EXPECT_NEAR(t, expect, expect * 1e-9);
}

TEST(CostModel, ExchangeReceiverCanBeBottleneck) {
  auto p = dn::cori();
  dn::CostModel model(p, dn::Topology{3, 1});
  // Ranks 0 and 1 each send 4 MB to rank 2: rank 2's receive side dominates.
  auto recs = make_alltoallv({{0, 0, 4'000'000}, {0, 0, 4'000'000}, {0, 0, 0}});
  std::vector<double> per_rank;
  double t = model.exchange_time(recs, false, &per_rank);
  EXPECT_NEAR(per_rank[2], 8e6 / p.node_bw_bytes_per_s, 1e-6);
  EXPECT_NEAR(t, per_rank[2], 1e-12);
  EXPECT_LT(per_rank[0], per_rank[2]);
}

TEST(CostModel, FirstAlltoallvPaysSetup) {
  auto p = dn::cori();
  dn::CostModel model(p, dn::Topology{2, 2});
  auto recs = make_alltoallv({{0, 10, 10, 10}, {10, 0, 10, 10}, {10, 10, 0, 10}, {10, 10, 10, 0}});
  double plain = model.exchange_time(recs, false);
  double first = model.exchange_time(recs, true);
  EXPECT_NEAR(first - plain, p.first_alltoallv_setup_s_per_peer * 4, 1e-12);
}

TEST(CostModel, SlowerNetworkCostsMore) {
  dn::Topology topo{4, 4};
  std::vector<std::vector<u64>> bytes(16, std::vector<u64>(16, 4096));
  for (int r = 0; r < 16; ++r) bytes[static_cast<std::size_t>(r)][static_cast<std::size_t>(r)] = 0;
  auto recs = make_alltoallv(bytes);
  double t_edison = dn::CostModel(dn::edison(), topo).exchange_time(recs, false);
  double t_cori = dn::CostModel(dn::cori(), topo).exchange_time(recs, false);
  double t_aws = dn::CostModel(dn::aws(), topo).exchange_time(recs, false);
  EXPECT_LT(t_edison, t_cori);  // Edison's 436 MB/s node bandwidth wins
  EXPECT_LT(t_cori, t_aws);     // commodity cloud network loses
}

TEST(CostModel, EvaluateAggregatesSuperstepsBspStyle) {
  // Two ranks, one superstep of compute, one exchange, another compute.
  dn::Topology topo{2, 1};
  dn::CostModel model(dn::local_host(), topo);

  std::vector<dn::RankTrace> traces(2);
  traces[0].add_compute("alpha", units(1), 0);
  traces[1].add_compute("alpha", units(3), 0);  // slow rank dominates superstep
  for (int r = 0; r < 2; ++r) {
    dc::ExchangeRecord rec;
    rec.stage = "alpha";
    rec.seq = 0;
    rec.bytes_to_peer = {0, 0};
    rec.bytes_to_peer[static_cast<std::size_t>(1 - r)] = 500;
    rec.wall_seconds = 0.25;
    traces[static_cast<std::size_t>(r)].add_exchange(rec);
  }
  traces[0].add_compute("beta", units(2), 0);
  traces[1].add_compute("beta", units(1), 0);

  auto report = model.evaluate(traces, kSecondPerUnit);
  ASSERT_TRUE(report.has_stage("alpha"));
  ASSERT_TRUE(report.has_stage("beta"));
  EXPECT_DOUBLE_EQ(report.stage("alpha").compute_virtual, 3.0);  // max over ranks
  EXPECT_DOUBLE_EQ(report.stage("beta").compute_virtual, 2.0);
  EXPECT_EQ(report.stage("alpha").exchange_calls, 1u);
  EXPECT_EQ(report.stage("alpha").exchange_bytes, 1000u);
  // Per-rank times preserved for imbalance metrics.
  ASSERT_EQ(report.per_rank_stage_seconds.at("beta").size(), 2u);
  EXPECT_DOUBLE_EQ(report.per_rank_stage_seconds.at("beta")[0], 2.0);
  EXPECT_DOUBLE_EQ(report.per_rank_stage_seconds.at("beta")[1], 1.0);
  // Stage order follows first appearance.
  ASSERT_EQ(report.stage_order.size(), 2u);
  EXPECT_EQ(report.stage_order[0], "alpha");
  EXPECT_EQ(report.stage_order[1], "beta");
  EXPECT_DOUBLE_EQ(report.total_virtual(),
                   report.total_compute_virtual() + report.total_exchange_virtual());
}

TEST(CostModel, EvaluateSubStagesTracked) {
  dn::Topology topo{1, 1};
  dn::CostModel model(dn::local_host(), topo);
  std::vector<dn::RankTrace> traces(1);
  traces[0].add_compute("bloom:pack", units(1), 0);
  traces[0].add_compute("bloom:local", units(2), 0);
  auto report = model.evaluate(traces, kSecondPerUnit);
  EXPECT_DOUBLE_EQ(report.stage("bloom").compute_virtual, 3.0);
  EXPECT_DOUBLE_EQ(report.stage("bloom:pack").compute_virtual, 1.0);
  EXPECT_DOUBLE_EQ(report.stage("bloom:local").compute_virtual, 2.0);
  // Only top-level stages appear in stage_order (totals would double count).
  ASSERT_EQ(report.stage_order.size(), 1u);
  EXPECT_EQ(report.stage_order[0], "bloom");
}

TEST(CostModel, EvaluateRejectsMisalignedTraces) {
  dn::CostModel model(dn::local_host(), dn::Topology{2, 1});
  std::vector<dn::RankTrace> traces(2);
  // Rank 1 has no exchange: SPMD violation.
  traces[0].add_exchange(make_alltoallv({{0, 0}, {0, 0}})[0]);
  EXPECT_THROW(model.evaluate(traces, kSecondPerUnit), dibella::Error);
}

TEST(CostModel, EndToEndWithRealWorldRecords) {
  // Drive a real World, feed the traces its records land in through the model.
  const int P = 4;
  dc::World world(P);
  std::vector<dn::RankTrace> traces(P);
  world.run([&](dc::Communicator& comm) {
    auto& trace = traces[static_cast<std::size_t>(comm.rank())];
    comm.set_record_sink(
        [&trace](const dc::ExchangeRecord& rec) { trace.add_exchange(rec); });
    comm.set_stage("work");
    trace.add_compute("work", units(static_cast<u64>(comm.rank() + 1)), 1 << 20);
    dc::Exchanger ex(comm);
    for (int d = 0; d < P; ++d) ex.post(d, std::vector<u64>(100, 1));
    ex.flush_async(/*done=*/true);
    ex.wait();
  });
  dn::CostModel model(dn::titan(), dn::Topology{2, 2});
  auto report = model.evaluate(traces, costs_of(0.001));
  ASSERT_TRUE(report.has_stage("work"));
  // Compute: max cpu = 0.004 scaled by at least the core factor.
  EXPECT_GE(report.stage("work").compute_virtual, 0.004 * dn::titan().core_time_factor * 0.99);
  EXPECT_GT(report.stage("work").exchange_virtual, 0.0);
  // Self-destination bytes are excluded from the records (P-1 wire peers).
  EXPECT_EQ(report.stage("work").exchange_bytes, static_cast<u64>(P * (P - 1) * 100 * 8));
}

TEST(CostModel, OverlappedExchangeSplitsExposedAndHidden) {
  // One rank computes 2.0s virtual inside the flush...wait bracket, the
  // other nothing: rank 1's cost is fully exposed, rank 0 hides up to its
  // window. Exposed = max over ranks of (per-rank cost - window).
  dn::Topology topo{2, 1};
  dn::CostModel model(dn::local_host(), topo);

  std::vector<dn::RankTrace> traces(2);
  traces[0].add_exchange_start();
  traces[0].add_compute("alpha", units(2), 0);
  traces[1].add_exchange_start();
  for (int r = 0; r < 2; ++r) {
    dc::ExchangeRecord rec;
    rec.stage = "alpha";
    rec.seq = 0;
    rec.bytes_to_peer = {0, 0};
    rec.bytes_to_peer[static_cast<std::size_t>(1 - r)] = 4'000'000;
    traces[static_cast<std::size_t>(r)].add_exchange(rec);
  }

  auto report = model.evaluate(traces, kSecondPerUnit);
  const auto& st = report.stage("alpha");
  EXPECT_GT(st.exchange_virtual, 0.0);
  // Rank 1 had no compute in the window, so its full cost stays exposed;
  // rank 0's window (2.0s virtual) covers its cost entirely on this model.
  EXPECT_GT(st.exchange_exposed_virtual, 0.0);
  EXPECT_LE(st.exchange_exposed_virtual, st.exchange_virtual);
  // Totals: makespan counts compute + exposed only.
  EXPECT_DOUBLE_EQ(report.total_virtual(),
                   report.total_compute_virtual() +
                       report.total_exchange_exposed_virtual());
}

TEST(CostModel, BlockingCollectivesStayFullyExposed) {
  // No start markers -> exposed == full exchange time (the pre-overlap
  // behavior, which the paper-figure benches rely on).
  dn::Topology topo{2, 1};
  dn::CostModel model(dn::local_host(), topo);
  std::vector<dn::RankTrace> traces(2);
  auto recs = make_alltoallv({{0, 1'000'000}, {1'000'000, 0}});
  for (int r = 0; r < 2; ++r) {
    traces[static_cast<std::size_t>(r)].add_compute("s", units(1), 0);
    traces[static_cast<std::size_t>(r)].add_exchange(recs[static_cast<std::size_t>(r)]);
  }
  auto report = model.evaluate(traces, kSecondPerUnit);
  EXPECT_DOUBLE_EQ(report.stage("s").exchange_exposed_virtual,
                   report.stage("s").exchange_virtual);
  EXPECT_GT(report.stage("s").exchange_virtual, 0.0);
}

TEST(CostModel, EvaluateIsLinearInTheKernelCosts) {
  // Each segment is priced as sum(units x cost) x compute_scale(working
  // set): a rank's modeled compute is the sum of its kernels' units times
  // their costs, so the report is linear in the costs it is handed. Rank 1's
  // working set outgrows its cache share, so the cache penalty scales too.
  dn::Topology topo{1, 2};
  dn::CostModel model(dn::cori(), topo);
  dn::KernelUnits a{};
  a[dn::Kernel::kParse] = 1'000;
  a[dn::Kernel::kXdropCell] = 250'000;
  dn::KernelUnits b{};
  b[dn::Kernel::kByteCopy] = u64{1} << 20;
  b[dn::Kernel::kGraphProbe] = 77;
  b[dn::Kernel::kParse] = 3;
  std::vector<dn::RankTrace> traces(2);
  traces[0].add_compute("s:x", a, u64{1} << 10);
  traces[1].add_compute("s:x", b, u64{1} << 30);

  dn::KernelCosts c1{}, c2{}, sum{}, twice{};
  for (std::size_t k = 0; k < dn::kKernelCount; ++k) {
    c1[k] = 1e-9 * static_cast<double>(k + 1);
    c2[k] = 3e-10 * static_cast<double>(dn::kKernelCount - k);
    sum[k] = c1[k] + c2[k];
    twice[k] = 2.0 * c1[k];
  }
  const auto r1 = model.evaluate(traces, c1);
  const auto r2 = model.evaluate(traces, c2);
  const auto rs = model.evaluate(traces, sum);
  const auto r2x = model.evaluate(traces, twice);
  const auto& p1 = r1.per_rank_stage_seconds.at("s");
  const auto& p2 = r2.per_rank_stage_seconds.at("s");
  const auto& ps = rs.per_rank_stage_seconds.at("s");
  const auto& p2x = r2x.per_rank_stage_seconds.at("s");
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_GT(p1[r], 0.0) << r;
    EXPECT_NEAR(ps[r], p1[r] + p2[r], 1e-12 * ps[r]) << r;
    EXPECT_NEAR(p2x[r], 2.0 * p1[r], 1e-12 * p2x[r]) << r;
  }
  EXPECT_NEAR(p1[0],
              (1'000 * c1[dn::Kernel::kParse] + 250'000 * c1[dn::Kernel::kXdropCell]) *
                  model.compute_scale(u64{1} << 10),
              1e-12 * p1[0]);
  EXPECT_GT(model.compute_scale(u64{1} << 30), model.compute_scale(u64{1} << 10));
  EXPECT_NEAR(r2x.stage("s").compute_virtual, 2.0 * r1.stage("s").compute_virtual,
              1e-12 * r2x.stage("s").compute_virtual);
  EXPECT_NEAR(r2x.stage("s:x").compute_virtual, 2.0 * r1.stage("s:x").compute_virtual,
              1e-12 * r2x.stage("s:x").compute_virtual);
}
