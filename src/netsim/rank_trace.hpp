#pragma once
/// \file rank_trace.hpp
/// Per-rank execution trace: an ordered stream of compute segments and
/// collective (exchange) events. The pipeline records one trace per rank;
/// the cost model replays traces superstep-by-superstep to produce
/// platform-scaled stage timings (BSP semantics: a superstep's duration is
/// the max over ranks). Each exchange event carries the rank's
/// comm::ExchangeRecord of that exchange: the trace is the only place an
/// exchange is recorded. A compute segment holds exact work units per
/// kernel, not seconds: the cost model prices them with the KernelCosts it
/// is handed, so a trace is priced the same whenever and wherever it is.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "comm/exchange_record.hpp"
#include "util/common.hpp"

namespace dibella::netsim {

/// The kernels whose work a compute segment counts, each with one per-unit
/// cost (core/kernel_costs.hpp measures them on this host). Unscoped, so a
/// Kernel indexes KernelUnits and KernelCosts.
enum Kernel : u8 {
  kParse,            ///< rolling canonical parse + buffer push, per k-mer window
  kBloomInsert,      ///< Bloom filter test_and_insert
  kTableInsert,      ///< hash table insert/add_occurrence
  kTableTraverse,    ///< per-key traversal (overlap stage)
  kPairConsolidate,  ///< per-record sort-then-group consolidation
  kPairRuns,         ///< per-task pair-run encode, decode, merge, filter
  kXdropCell,        ///< per DP cell of x-drop extension
  kByteCopy,         ///< bulk byte marshalling
  kGraphProbe,       ///< per witness lookup of transitive reduction
};
inline constexpr std::size_t kKernelCount = kGraphProbe + 1;

/// Exact work units of each kernel.
using KernelUnits = std::array<u64, kKernelCount>;
/// Seconds per unit of each kernel.
using KernelCosts = std::array<double, kKernelCount>;

/// One element of a rank's trace.
///
/// kExchangeStart marks the launch of a nonblocking exchange
/// (Exchanger::flush_async): every compute segment between it and the next
/// kExchange event ran while that exchange was in flight, so the cost model
/// may hide the exchange's virtual time behind it (the exposed/hidden
/// split). A kExchange with no preceding start marker is a blocking
/// collective — fully exposed.
struct TraceEvent {
  enum class Kind : u8 { kCompute, kExchange, kExchangeStart };
  Kind kind = Kind::kCompute;

  // kCompute fields:
  std::string stage;           ///< pipeline stage tag, may contain a ":sub" suffix
  KernelUnits units{};         ///< exact work units, priced by the cost model
  u64 working_set_bytes = 0;   ///< approximate bytes touched (cache model input)

  // kExchange fields:
  comm::ExchangeRecord exchange;  ///< this rank's record of the exchange
};

/// Ordered trace of one rank's execution.
class RankTrace {
 public:
  /// Record a compute segment (stages record through core::KernelBatch).
  void add_compute(std::string stage, const KernelUnits& units, u64 working_set_bytes) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kCompute;
    ev.stage = std::move(stage);
    ev.units = units;
    ev.working_set_bytes = working_set_bytes;
    events_.push_back(std::move(ev));
  }

  /// Record a completed exchange: this rank's record of it.
  void add_exchange(comm::ExchangeRecord rec) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kExchange;
    ev.exchange = std::move(rec);
    events_.push_back(std::move(ev));
  }

  /// Record that a nonblocking exchange started; it completes at the next
  /// kExchange event in this trace, and compute recorded in between is
  /// concurrent with the exchange.
  void add_exchange_start() {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kExchangeStart;
    events_.push_back(std::move(ev));
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Number of exchange events in the trace.
  std::size_t exchange_count() const {
    std::size_t n = 0;
    for (const auto& ev : events_) {
      if (ev.kind == TraceEvent::Kind::kExchange) ++n;
    }
    return n;
  }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace dibella::netsim
