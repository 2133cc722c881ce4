// Stage-5 string-graph reduction benchmark: sequential oracle vs the
// distributed sgraph stage.
//
// Generates a synthetic genome read layout (bench/common/sgraph_workload.hpp),
// derives one perfect alignment record per true overlap, then reduces the
// resulting string graph two ways:
//   * sequential — graph::OverlapGraph::transitive_reduction + unitig
//     layout, single thread (classification and graph build are untimed
//     setup shared by both sides);
//   * distributed — sgraph::run_string_graph_stage over an in-process World
//     (fused exchange, ghost exchange, CSR semiring reduction, distributed
//     unitig walk) plus the shard stitch, real wall-clock.
// The surviving edge sets are cross-checked edge for edge before any number
// is reported. The headline (sequential vs distributed wallclock + edges
// removed) is the `sgraph_reduction` entry of BENCH_kernels.json
// (regenerated by bench_kernel_wallclock, which folds in this measurement).
//
// usage: bench_sgraph_reduction [--smoke] [--ranks=N] [--reps=N] [--out=PATH]
//   --smoke   tiny workload (CI-sized; shape, not significance)
//   --reps=N  timing repetitions, best-of-N (default 3; smoke 2)
//   --out     output JSON path (default BENCH_sgraph_reduction.json)

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "common/sgraph_workload.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace dibella;

struct Row {
  std::size_t n_reads = 0;
  u64 records = 0;
  benchx::SgraphBenchResult r;
};

void write_json(const std::string& path, const std::vector<Row>& rows, bool smoke,
                int ranks, int reps) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"dibella-sgraph-reduction-v1\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"ranks\": " << ranks << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    os << "    {\"reads\": " << row.n_reads << ", \"records\": " << row.records
       << ", \"edges_in\": " << row.r.edges_in
       << ", \"edges_removed\": " << row.r.edges_removed
       << ", \"edges_surviving\": " << row.r.edges_surviving
       << ", \"unitigs\": " << row.r.unitigs
       << ", \"sequential_s\": " << row.r.sequential_s
       << ", \"distributed_s\": " << row.r.distributed_s
       << ", \"seq_removed_per_s\": " << row.r.seq_removed_per_s
       << ", \"dist_removed_per_s\": " << row.r.dist_removed_per_s
       << ", \"modeled_cori_s\": " << row.r.modeled_virtual_s << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  std::ofstream f(path, std::ios::trunc);
  DIBELLA_CHECK(static_cast<bool>(f), "cannot open " + path + " for writing");
  f << os.str();
  DIBELLA_CHECK(static_cast<bool>(f.flush()), "write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) try {
  util::Args args(argc, argv);
  args.reject_unknown({"smoke", "ranks", "reps", "out"});
  const bool smoke = args.get_bool("smoke", false);
  const int ranks = static_cast<int>(args.get_i64("ranks", 4));
  const int reps = static_cast<int>(args.get_i64("reps", smoke ? 2 : 3));
  const std::string out_path = args.get("out", "BENCH_sgraph_reduction.json");

  benchx::print_header("sgraph",
                       "string-graph transitive reduction: sequential oracle vs "
                       "distributed stage (" +
                           std::to_string(ranks) + " ranks)");

  sgraph::StringGraphConfig cfg;  // defaults: fuzz 200, no score floor
  std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{800} : std::vector<std::size_t>{2'000, 8'000};
  std::vector<Row> rows;
  for (std::size_t n : sizes) {
    // ~30x coverage layout (the paper's E. coli 30x shape): dense enough
    // that transitive edges dominate and the reduction is the hot loop.
    auto w = benchx::make_sgraph_workload(n, n * 200, 6'000, 500,
                                          /*seed=*/0x5647 + n);
    Row row;
    row.n_reads = n;
    row.records = w.records.size();
    row.r = benchx::measure_sgraph_reduction(w, ranks, reps, cfg);
    rows.push_back(row);
  }

  util::Table t({"reads", "records", "edges in", "removed", "surviving", "unitigs",
                 "sequential (s)", "distributed (s)", "removed/s seq", "removed/s dist",
                 "modeled Cori (s)"});
  for (const auto& row : rows) {
    t.start_row();
    t.cell(row.n_reads);
    t.cell(row.records);
    t.cell(row.r.edges_in);
    t.cell(row.r.edges_removed);
    t.cell(row.r.edges_surviving);
    t.cell(row.r.unitigs);
    t.cell(row.r.sequential_s, 4);
    t.cell(row.r.distributed_s, 4);
    t.cell(row.r.seq_removed_per_s, 0);
    t.cell(row.r.dist_removed_per_s, 0);
    t.cell(row.r.modeled_virtual_s, 4);
  }
  std::cout << t.to_text("string-graph reduction (best of " + std::to_string(reps) +
                         ", timed = reduce + layout, setup untimed, surviving sets "
                         "cross-checked; distributed wallclock on this host measures "
                         "distribution overhead when cores < ranks)");

  write_json(out_path, rows, smoke, ranks, reps);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
} catch (const util::UsageError& e) {
  std::cerr << "bench_sgraph_reduction: " << e.what() << "\n";
  return 2;
}
