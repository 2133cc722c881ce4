#pragma once
/// \file stage_context.hpp
/// Per-rank execution context handed to every pipeline stage: the
/// communicator plus the rank's trace.
///
/// The context also carries the rank's wallclock span lane (src/obs/;
/// `spans`, null when --trace/--profile-report are off — every span call
/// degrades to a no-op). Stage counters are not kept here: each stage
/// returns them in its result, and run_pipeline sums them into
/// PipelineCounters.

#include <sys/resource.h>

#include <exception>

#include "comm/communicator.hpp"
#include "netsim/rank_trace.hpp"
#include "obs/span.hpp"

namespace dibella::core {

/// One kernel batch, instrumented once. Compute accounting is work-based
/// (core/kernel_costs.hpp): the batch counts exact work units per kernel.
/// On close it emits its span, with every unit count as an arg, and appends
/// one compute segment holding the same counts to the rank's trace. A batch
/// unwound by an exception records no segment.
class KernelBatch {
 public:
  KernelBatch(netsim::RankTrace& trace, obs::Trace* spans, int rank, const char* name,
              const char* tag)
      : trace_(trace),
        span_(spans, rank, name),
        tag_(tag != nullptr ? tag : name),
        exceptions_(std::uncaught_exceptions()) {}

  KernelBatch(const KernelBatch&) = delete;
  KernelBatch& operator=(const KernelBatch&) = delete;

  /// `n` units of `kernel`'s work (span arg `key` = n).
  KernelBatch& units(const char* key, u64 n, netsim::Kernel kernel) {
    span_.arg(key, n);
    units_[kernel] += n;
    return *this;
  }

  /// Bytes the batch touched (the cost model's cache input).
  KernelBatch& working_set(u64 bytes) {
    working_set_bytes_ = bytes;
    return *this;
  }

  /// A span arg with no modeled cost.
  KernelBatch& arg(const char* key, u64 value) {
    span_.arg(key, value);
    return *this;
  }

  /// Emit the span and the segment now instead of at scope exit.
  void close() {
    if (tag_ == nullptr) return;
    span_.close();
    if (std::uncaught_exceptions() == exceptions_) {
      trace_.add_compute(tag_, units_, working_set_bytes_);
    }
    tag_ = nullptr;
  }

  ~KernelBatch() { close(); }

 private:
  netsim::RankTrace& trace_;
  obs::Span span_;
  const char* tag_;  ///< null once closed
  int exceptions_;
  netsim::KernelUnits units_{};
  u64 working_set_bytes_ = 0;
};

/// One `stage:<name>` span. It closes with arg `rss_hwm_kb`: the process's
/// peak resident set so far (getrusage ru_maxrss; the ranks are threads of
/// one process), so a run's peak RSS can be attributed to the stage that
/// set it.
class StageSpan {
 public:
  StageSpan(obs::Trace* spans, int rank, const char* name) : span_(spans, rank, name) {}

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  ~StageSpan() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    span_.arg("rss_hwm_kb", static_cast<u64>(usage.ru_maxrss));
  }

 private:
  obs::Span span_;
};

/// Everything a stage needs from its rank.
struct StageContext {
  comm::Communicator& comm;
  netsim::RankTrace& trace;
  obs::Trace* spans = nullptr;  ///< wallclock span lanes (null = tracing off)

  /// Open a wallclock span on this rank's lane (no-op when tracing is off).
  obs::Span span(const char* name) { return obs::Span(spans, comm.rank(), name); }

  /// Open the `stage:<name>` span of one pipeline stage.
  StageSpan stage_span(const char* name) { return StageSpan(spans, comm.rank(), name); }

  /// Open one kernel batch: a `<stage>:<kernel>` span named `name` whose
  /// compute segment is recorded under `tag` (default: `name`).
  KernelBatch kernel(const char* name, const char* tag = nullptr) {
    return {trace, spans, comm.rank(), name, tag};
  }

  /// Wire the communicator's record stream into the trace so exchange
  /// events interleave with compute events, and bracket nonblocking
  /// exchanges with start markers so the cost model can tell which compute
  /// ran while an exchange was in flight. When span collection is on, the
  /// same sinks emit the wallclock counterpart: an async
  /// `exchange:inflight` window per exchange (bytes / retries / seq /
  /// exposed_us / hidden_us args) plus an `exchange:exposed` complete event
  /// for its blocked portion. Call once per rank before any stage runs; `this`
  /// must outlive the communicator's sinks (it does — both live for the
  /// whole World::run closure).
  void attach() {
    comm.set_exchange_start_sink([this] {
      trace.add_exchange_start();
      if (spans) {
        obs::RankTimeline& lane = spans->lane(comm.rank());
        inflight_async_id_ = lane.next_async_id();
        obs::SpanEvent ev;
        ev.phase = obs::SpanEvent::Phase::kAsyncBegin;
        ev.name = "exchange:inflight";
        ev.t_ns = spans->now_ns();
        ev.id = inflight_async_id_;
        lane.push(ev);
      }
    });
    comm.set_record_sink([this](const comm::ExchangeRecord& rec) {
      trace.add_exchange(rec);
      observe_exchange(rec);
    });
  }

  /// Async pairing id of the open exchange window. Internal state of the
  /// sinks above; public only so StageContext stays an aggregate.
  u64 inflight_async_id_ = 0;

 private:
  void observe_exchange(const comm::ExchangeRecord& rec) {
    if (!spans) return;
    obs::RankTimeline& lane = spans->lane(comm.rank());
    const u64 now = spans->now_ns();
    const auto to_ns = [](double s) { return static_cast<u64>(s * 1e9); };
    obs::SpanEvent done;
    done.phase = obs::SpanEvent::Phase::kAsyncEnd;
    done.name = "exchange:inflight";
    done.t_ns = now;
    done.id = inflight_async_id_;
    done.add_arg("bytes", rec.total_bytes());
    done.add_arg("retries", rec.retries);
    done.add_arg("seq", rec.seq);
    done.add_arg("exposed_us", to_ns(rec.wall_seconds) / 1000);
    done.add_arg("hidden_us", to_ns(rec.hidden_wall_seconds) / 1000);
    lane.push(done);
    inflight_async_id_ = 0;
    obs::SpanEvent waited;
    waited.phase = obs::SpanEvent::Phase::kComplete;
    waited.name = "exchange:exposed";
    waited.t_ns = now;
    waited.dur_ns = to_ns(rec.wall_seconds);
    waited.add_arg("bytes", rec.total_bytes());
    lane.push(waited);
  }
};

}  // namespace dibella::core
