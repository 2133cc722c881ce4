/// \file bench_table1_platforms.cpp
/// Table 1: the evaluated platforms. Prints the platform models (parameters
/// taken from the paper's Table 1 where reported, estimates documented in
/// netsim/platform.cpp otherwise) plus a microbenchmark of the modeled
/// network: the effective alltoallv time for a representative exchange on
/// each platform, which the figure benches build on.

#include <cstdio>

#include "common/bench_common.hpp"
#include "netsim/cost_model.hpp"

int main() {
  using namespace dibella;
  using namespace dibella::benchx;
  print_header("Table 1 — Evaluated Platforms",
               "platform model parameters + modeled exchange microbenchmark");

  util::Table t({"", "Cori (XC40)", "Edison (XC30)", "Titan (XK7)", "AWS"});
  auto platforms = netsim::table1_platforms();
  auto row = [&](const std::string& name, auto getter, int precision) {
    t.start_row();
    t.cell(name);
    for (const auto& p : platforms) t.cell(getter(p), precision);
  };
  row("Freq (GHz)", [](const netsim::Platform& p) { return p.cpu_ghz; }, 1);
  t.start_row();
  t.cell("Cores/Node");
  for (const auto& p : platforms) t.cell(static_cast<i64>(p.cores_per_node));
  row("LAT (usec)", [](const netsim::Platform& p) { return p.inter_latency_s * 1e6; }, 1);
  row("BW/Node (MB/s)",
      [](const netsim::Platform& p) { return p.node_bw_bytes_per_s / 1e6; }, 1);
  row("Memory (GB)", [](const netsim::Platform& p) { return p.memory_gb; }, 0);
  row("core time factor",
      [](const netsim::Platform& p) { return p.core_time_factor; }, 2);
  t.start_row();
  t.cell("Network");
  for (const auto& p : platforms) t.cell(p.network);
  t.print("platform models (Table 1 values; estimates documented in source)");

  // Modeled microbenchmark: an 8-node uniform alltoallv of 1 MB per rank.
  const int nodes = 8, rpn = bench_ranks_per_node();
  const int P = nodes * rpn;
  std::vector<comm::ExchangeRecord> call(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    call[static_cast<std::size_t>(r)].bytes_to_peer.assign(static_cast<std::size_t>(P),
                                                           1u << 20);
    call[static_cast<std::size_t>(r)].bytes_to_peer[static_cast<std::size_t>(r)] = 0;
  }
  util::Table m({"platform", "alltoallv (1MB/peer, 8 nodes)", "first-call (s)"});
  for (const auto& p : platforms) {
    netsim::CostModel model(p, netsim::Topology{nodes, rpn});
    m.start_row();
    m.cell(p.name);
    m.cell(model.exchange_time(call, false), 3);
    m.cell(model.exchange_time(call, true), 3);
  }
  m.print("modeled irregular all-to-all microbenchmark");
  return 0;
}
