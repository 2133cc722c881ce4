// Exchange-overlap benchmark: quantifies how much of the pipeline's
// irregular all-to-all time the nonblocking Exchanger hides behind local
// compute, per stage and in total.
//
// Runs the same E. coli 30x-like workload under both schedules of the
// exchange loop (--overlap-comm=off's depth-0 bulk-synchronous supersteps vs
// the overlapped pack/flush/consume loop), verifies the alignment outputs
// are identical, and reports modeled Cori exchange seconds split into
// exposed (ranks waiting on the network) and hidden (in flight behind
// compute). The headline number — total exposed exchange seconds
// before/after — is the `exchange_overlap` entry of BENCH_kernels.json
// (regenerated by bench_kernel_wallclock, which folds in the same
// measurement).
//
// usage: bench_exchange_overlap [--smoke] [--ranks=N] [--ranks-per-node=N]
//                               [--scale=F] [--batch-kmers=N] [--out=PATH]
//   --smoke   tiny workload (CI-sized; shape, not significance)
//   --out     output JSON path (default BENCH_exchange_overlap.json)
//
// The reported seconds are deterministic virtual cost-model time (exact
// wire volumes, work-based compute accounting), so CI can quote them.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/bench_common.hpp"
#include "common/exchange_overlap.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace dibella;

void write_json(const std::string& path, const benchx::ExchangeOverlapResult& r,
                bool smoke, int ranks, int ranks_per_node, double scale) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"dibella-exchange-overlap-v1\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"ranks\": " << ranks << ",\n";
  os << "  \"ranks_per_node\": " << ranks_per_node << ",\n";
  os << "  \"scale\": " << scale << ",\n";
  os << "  \"exposed_exchange_s_off\": " << r.exposed_off() << ",\n";
  os << "  \"exposed_exchange_s_on\": " << r.exposed_on() << ",\n";
  os << "  \"hidden_exchange_s_on\": " << r.hidden_on() << ",\n";
  os << "  \"speedup_exposed\": "
     << (r.exposed_on() > 0 ? r.exposed_off() / r.exposed_on() : 0) << ",\n";
  os << "  \"stages\": [\n";
  const auto& order = r.report_on.stage_order;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& off = r.report_off.stage(order[i]);
    const auto& on = r.report_on.stage(order[i]);
    os << "    {\"stage\": \"" << order[i] << "\", \"exposed_off\": "
       << off.exchange_exposed_virtual << ", \"exposed_on\": "
       << on.exchange_exposed_virtual << ", \"hidden_on\": "
       << on.exchange_hidden_virtual() << "}" << (i + 1 < order.size() ? "," : "")
       << "\n";
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
  args.reject_unknown({"smoke", "ranks", "ranks-per-node", "scale", "batch-kmers", "out"});
  const bool smoke = args.get_bool("smoke", false);
  const int ranks = static_cast<int>(args.get_i64("ranks", smoke ? 4 : 8));
  const int rpn = static_cast<int>(args.get_i64("ranks-per-node", smoke ? 2 : 4));
  const double scale = args.get_double("scale", smoke ? 0.02 : 0.1);
  const u64 batch =
      static_cast<u64>(args.get_i64("batch-kmers", smoke ? (1 << 15) : (1 << 18)));
  const std::string out_path = args.get("out", "BENCH_exchange_overlap.json");
  DIBELLA_CHECK(ranks % rpn == 0, "--ranks-per-node must divide --ranks");

  benchx::print_header("exchange-overlap",
                       "exposed vs hidden exchange time: bulk-synchronous vs "
                       "overlapped exchange loop (modeled Cori seconds)");

  auto r = benchx::measure_exchange_overlap(scale, ranks, rpn, batch);

  util::Table t({"stage", "exchange (s)", "exposed off (s)", "exposed on (s)",
                 "hidden on (s)", "hidden %"});
  for (const auto& name : r.report_on.stage_order) {
    const auto& off = r.report_off.stage(name);
    const auto& on = r.report_on.stage(name);
    t.start_row();
    t.cell(name);
    t.cell(on.exchange_virtual, 4);
    t.cell(off.exchange_exposed_virtual, 4);
    t.cell(on.exchange_exposed_virtual, 4);
    t.cell(on.exchange_hidden_virtual(), 4);
    t.cell(on.exchange_virtual > 0
               ? 100.0 * on.exchange_hidden_virtual() / on.exchange_virtual
               : 0.0,
           1);
  }
  t.start_row();
  t.cell("total");
  t.cell(r.report_on.total_exchange_virtual(), 4);
  t.cell(r.exposed_off(), 4);
  t.cell(r.exposed_on(), 4);
  t.cell(r.hidden_on(), 4);
  t.cell(r.report_on.total_exchange_virtual() > 0
             ? 100.0 * r.hidden_on() / r.report_on.total_exchange_virtual()
             : 0.0,
         1);
  std::cout << t.to_text("exchange overlap on " + std::to_string(ranks) + " ranks (" +
                         std::to_string(r.batches_on) + " overlapped vs " +
                         std::to_string(r.batches_off) + " bulk-synchronous exchanges)");
  std::cout << "\nexposed exchange: " << r.exposed_off() << " s -> " << r.exposed_on()
            << " s (" << (r.exposed_on() > 0 ? r.exposed_off() / r.exposed_on() : 0)
            << "x, " << r.hidden_on() << " s hidden behind compute)\n";

  write_json(out_path, r, smoke, ranks, rpn, scale);
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const util::UsageError& e) {
  std::cerr << "bench_exchange_overlap: " << e.what() << "\n";
  return 2;
}
