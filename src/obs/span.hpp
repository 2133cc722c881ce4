#pragma once
/// \file span.hpp
/// Hierarchical wallclock span tracer — the measured-time counterpart of the
/// modeled netsim::RankTrace.
///
/// The pipeline's virtual-time view (rank traces replayed through the cost
/// model) answers "what would this cost on Cori"; it cannot answer "why is
/// this run slow *here*". This layer records what actually happened: every
/// rank owns a fixed-capacity ring of timestamped events (span begin/end,
/// async exchange windows, retroactive complete events) on one shared
/// monotonic clock, cheap enough to leave on and exportable as a Chrome
/// trace-event / Perfetto timeline (trace_export.hpp) or distilled into the
/// critical-path report (profile.hpp).
///
/// Span taxonomy (names are string literals; the hierarchy is positional —
/// a span nests inside whichever spans are open on its rank):
///   stage:<name>          one per pipeline stage per rank (bloom, ht,
///                         overlap, align, sgraph; arg rss_hwm_kb, the
///                         process's peak RSS as it closed)
///   round                 one stage-4 block round (arg block=i)
///   <stage>:<kernel>      a kernel batch inside a stage (bloom:pack,
///                         bloom:insert, align:extend, sgraph:reduce, ...),
///                         opened by core::StageContext::kernel(): its args
///                         are the unit counts its modeled compute segment
///                         was costed from (netsim::RankTrace)
///   align:read_exchange, sgraph:{edge,ghost}_exchange
///                         wrap a stage's exchange rounds and their kernels
///   exchange:inflight     async window of one nonblocking exchange, from
///                         flush_async to wait-return (args bytes, retries,
///                         exposed_us, hidden_us, seq)
///   exchange:exposed      the blocked portion of wait() (complete event)
///   spill:write / checkpoint:write / checkpoint:read   I/O sections
///
/// Thread safety: each RankTimeline takes a mutex per push, so concurrent
/// pushes never corrupt a lane. Spans come only from the rank's own thread,
/// though: nesting is positional per lane, so a span pushed from an
/// intra-rank worker (stage 4's alignment pool) would nest inside whatever
/// the rank thread had open at that moment. Workers push no spans; the rank
/// thread opens one span around the pool's whole batch. Capacity is fixed
/// up front — when a lane overflows, the oldest events are dropped and
/// counted (`dropped()`), never reallocated mid-run.

#include <cstring>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "util/common.hpp"

namespace dibella::obs {

/// One key/value annotation on a span (keys are string literals).
struct SpanArg {
  const char* key = nullptr;
  u64 value = 0;
};

/// One timeline event. `name` must point at storage outliving the trace
/// (string literals throughout the pipeline).
struct SpanEvent {
  enum class Phase : u8 {
    kBegin,       ///< span opened (pairs with the next unmatched kEnd)
    kEnd,         ///< span closed; carries the span's args
    kComplete,    ///< retroactive span: [t_ns - dur_ns, t_ns]
    kAsyncBegin,  ///< nonblocking exchange launched (pairs by id)
    kAsyncEnd,    ///< nonblocking exchange fully received; carries args
    kInstant,     ///< point event
  };
  static constexpr int kMaxArgs = 6;

  Phase phase = Phase::kInstant;
  u8 n_args = 0;
  const char* name = nullptr;
  u64 t_ns = 0;    ///< monotonic ns since the trace epoch
  u64 dur_ns = 0;  ///< kComplete only
  u64 id = 0;      ///< kAsyncBegin/kAsyncEnd pairing id (unique per rank)
  SpanArg args[kMaxArgs];

  void add_arg(const char* key, u64 value) {
    if (n_args < kMaxArgs) args[n_args++] = SpanArg{key, value};
  }
};

/// Fixed-capacity event ring for one rank. push() is thread-safe; when the
/// ring is full the oldest event is overwritten and counted as dropped.
class RankTimeline {
 public:
  explicit RankTimeline(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(std::min<std::size_t>(capacity_, 1024));
  }

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 17;

  void push(const SpanEvent& ev) {
    std::lock_guard<std::mutex> lock(mu_);
    switch (ev.phase) {
      case SpanEvent::Phase::kBegin: ++open_spans_; break;
      case SpanEvent::Phase::kEnd:
        if (open_spans_ > 0) {
          --open_spans_;
        } else {
          ++unmatched_ends_;  // misuse: end without a begin
        }
        break;
      default: break;
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[head_] = ev;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  /// Fresh async-window id, unique within this rank's lane.
  u64 next_async_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++async_ids_;
  }

  /// Events in chronological (push) order.
  std::vector<SpanEvent> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  u64 dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }
  /// Spans begun but not yet ended (rank-teardown misuse shows up here).
  i64 open_spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return open_spans_;
  }
  u64 unmatched_ends() const {
    std::lock_guard<std::mutex> lock(mu_);
    return unmatched_ends_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<SpanEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< oldest element once the ring wrapped
  u64 dropped_ = 0;
  u64 async_ids_ = 0;
  i64 open_spans_ = 0;
  u64 unmatched_ends_ = 0;
};

/// One run's wallclock trace: a shared monotonic epoch plus one timeline
/// per rank. Constructed by run_pipeline when span collection is on.
class Trace {
 public:
  explicit Trace(int ranks, std::size_t capacity_per_rank = RankTimeline::kDefaultCapacity)
      : epoch_(std::chrono::steady_clock::now()) {
    lanes_.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      lanes_.push_back(std::make_unique<RankTimeline>(capacity_per_rank));
    }
  }

  int ranks() const { return static_cast<int>(lanes_.size()); }
  RankTimeline& lane(int rank) { return *lanes_[static_cast<std::size_t>(rank)]; }
  const RankTimeline& lane(int rank) const {
    return *lanes_[static_cast<std::size_t>(rank)];
  }

  /// Monotonic nanoseconds since this trace's epoch.
  u64 now_ns() const {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - epoch_)
                                .count());
  }

  /// Close every span still open at rank teardown (an unclosed span would
  /// otherwise corrupt the begin/end pairing of everything recorded after
  /// it). Each forced close is stamped at the current clock with an
  /// `unclosed=1` arg; returns the number of spans closed this way.
  u64 finalize() {
    u64 closed = 0;
    for (auto& lane : lanes_) {
      while (lane->open_spans() > 0) {
        SpanEvent ev;
        ev.phase = SpanEvent::Phase::kEnd;
        ev.name = "unclosed";
        ev.t_ns = now_ns();
        ev.add_arg("unclosed", 1);
        lane->push(ev);
        ++closed;
      }
    }
    unclosed_ += closed;
    return closed;
  }

  /// Spans force-closed by finalize() so far.
  u64 unclosed_spans() const { return unclosed_; }
  /// Events lost to ring overflow, summed over ranks.
  u64 dropped_events() const {
    u64 n = 0;
    for (const auto& lane : lanes_) n += lane->dropped();
    return n;
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<RankTimeline>> lanes_;
  u64 unclosed_ = 0;
};

/// RAII span: records kBegin at construction and kEnd (with any args added
/// in between) at destruction. A null trace makes every operation a no-op,
/// so instrumented code needs no `if (tracing)` branches.
class Span {
 public:
  Span(Trace* trace, int rank, const char* name) : trace_(trace), rank_(rank) {
    if (!trace_) return;
    SpanEvent ev;
    ev.phase = SpanEvent::Phase::kBegin;
    ev.name = name;
    ev.t_ns = trace_->now_ns();
    end_.name = name;
    trace_->lane(rank_).push(ev);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Annotate the span (attached to its kEnd event).
  void arg(const char* key, u64 value) {
    if (trace_) end_.add_arg(key, value);
  }

  /// End the span now instead of at scope exit. Idempotent: the destructor
  /// (and any further close()) becomes a no-op afterwards.
  void close() {
    if (!trace_) return;
    end_.phase = SpanEvent::Phase::kEnd;
    end_.t_ns = trace_->now_ns();
    trace_->lane(rank_).push(end_);
    trace_ = nullptr;
  }

  ~Span() { close(); }

 private:
  Trace* trace_;
  int rank_ = 0;
  SpanEvent end_;
};

}  // namespace dibella::obs
