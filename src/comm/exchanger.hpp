#pragma once
/// \file exchanger.hpp
/// The nonblocking batched exchange: a double-buffered irregular
/// all-to-all with post / flush_async / wait semantics, and the one exchange
/// loop every pipeline stage runs on (run_exchange).
///
/// Usage pattern (one batch in flight at a time):
///
///   Exchanger ex(comm);
///   ex.post(dst, items...);        // pack batch 0
///   ex.flush_async(done0);         // batch 0 starts travelling
///   while (...) {
///     ex.post(dst, items...);      // pack batch i+1  } compute, hidden
///     auto batch = ex.wait();      // batch i arrives  } behind the flight
///     if (!batch.all_done()) ex.flush_async(done);
///     consume(batch);              // insert batch i   } of batch i+1
///   }
///
/// flush_async seals the current pack buffers and deposits each one, moved
/// in whole, as one framed message per peer into the World's mailbox slots
/// without blocking (deposits never block, so two ranks flushing at each
/// other cannot deadlock); the caller is free to pack the next batch and
/// consume the previous one while peers' messages arrive. wait() blocks only
/// for the deposits that have not yet arrived and returns each source's
/// payload as it arrived, in source-rank order, copying nothing.
///
/// Two schedules drive the same loop (Config::overlap): overlapped, as
/// above, or depth 0 — the paper's bulk-synchronous superstep: pack,
/// flush_async, wait, consume, with nothing packed while a batch is in
/// flight. Both exchange the same batches in the same order and differ only
/// in when pack() runs relative to the flight, so a stage's outputs are
/// bitwise-identical under either, and both travel the same CRC-framed,
/// self-healing message protocol.
///
/// Each flush carries a piggybacked per-sender `done` bit, so streaming
/// loops terminate without a separate allreduce: stop after the first batch
/// in which every sender (including self) reported done. All ranks observe
/// the same done bits for a given epoch, so the decision is SPMD-consistent.
///
/// Accounting: each flush/wait pair produces one ExchangeRecord.
/// wall_seconds measures only the time blocked inside wait() (the *exposed*
/// exchange time); hidden_wall_seconds measures the flush-to-wait window in
/// which the exchange was concurrent with compute. The flush also fires the communicator's exchange-start sink so the rank
/// trace brackets the compute-concurrent window for the cost model's
/// virtual exposed/hidden split (empty at depth 0: fully exposed).

#include <algorithm>
#include <cstring>
#include <vector>

#include "comm/communicator.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace dibella::comm {

/// One received batch: every source's payload as it arrived, one vector per
/// source rank.
struct RecvBatch {
  std::vector<std::vector<u8>> from;  ///< size P: source s's payload
  std::vector<u8> done_flags;         ///< size P: sender s's piggybacked done bit

  /// True when every sender (including self) reported done with this batch.
  bool all_done() const {
    for (u8 f : done_flags) {
      if (!f) return false;
    }
    return true;
  }

  const u8* src_data(int src) const { return from[static_cast<std::size_t>(src)].data(); }
  u64 src_size_bytes(int src) const { return from[static_cast<std::size_t>(src)].size(); }

  /// Payload bytes summed over every source.
  u64 total_bytes() const {
    u64 total = 0;
    for (const auto& b : from) total += b.size();
    return total;
  }

  /// Call `fn(const T&)` for every item of the whole batch, source by source
  /// in rank order, without copying the batch first; returns the item count.
  template <class T, class Fn>
  u64 for_each_item(Fn&& fn) const {
    static_assert(std::is_trivially_copyable_v<T>, "batch payload must be POD");
    u64 items = 0;
    for (const auto& b : from) {
      DIBELLA_CHECK(b.size() % sizeof(T) == 0, "batch size not a multiple of element");
      for (const u8* p = b.data(), *end = p + b.size(); p != end; p += sizeof(T)) {
        T item;
        std::memcpy(&item, p, sizeof(T));
        fn(static_cast<const T&>(item));
      }
      items += b.size() / sizeof(T);
    }
    return items;
  }

  /// Append one source's payload, reinterpreted as items of T, to `out`.
  template <class T>
  void append_from(int src, std::vector<T>& out) const {
    static_assert(std::is_trivially_copyable_v<T>, "batch payload must be POD");
    u64 nbytes = src_size_bytes(src);
    DIBELLA_CHECK(nbytes % sizeof(T) == 0, "batch size not a multiple of element");
    std::size_t n = nbytes / sizeof(T);
    std::size_t at = out.size();
    out.resize(at + n);
    if (n > 0) std::memcpy(out.data() + at, src_data(src), nbytes);
  }
};

/// Sequential POD reader over a received byte region (one source's slice of
/// a RecvBatch, or one source's bytes accumulated across several batches):
/// the consumption-side counterpart of post()-ing a framed record stream
/// field by field. Framed streams let a stage ship ragged records (header +
/// variable payload) through the same byte exchanges as flat ones; the
/// reader checks bounds so a truncated or misaligned frame fails loudly
/// instead of reading garbage.
class ByteReader {
 public:
  ByteReader(const u8* data, u64 size) : p_(data), left_(size) {}
  explicit ByteReader(const std::vector<u8>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool empty() const { return left_ == 0; }
  u64 remaining() const { return left_; }

  template <class T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>, "framed payload must be POD");
    DIBELLA_CHECK(left_ >= sizeof(T), "ByteReader: truncated frame");
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    left_ -= sizeof(T);
    return v;
  }

  /// Append `n` items of T to `out`. `n` is checked against the bytes
  /// left before it is scaled, so a wire count near 2^64 cannot wrap.
  template <class T>
  void read_into(std::vector<T>& out, u64 n) {
    static_assert(std::is_trivially_copyable_v<T>, "framed payload must be POD");
    DIBELLA_CHECK(n <= left_ / sizeof(T), "ByteReader: truncated frame payload");
    const u8* src = take(n * sizeof(T));
    std::size_t at = out.size();
    out.resize(at + n);
    if (n > 0) std::memcpy(out.data() + at, src, n * sizeof(T));
  }

  /// The next `n` bytes in place (valid while the underlying buffer is);
  /// advances past them.
  const u8* take(u64 n) {
    DIBELLA_CHECK(left_ >= n, "ByteReader: truncated frame payload");
    const u8* at = p_;
    p_ += n;
    left_ -= n;
    return at;
  }

 private:
  const u8* p_;
  u64 left_;
};

class Exchanger {
 public:
  struct Config {
    /// Schedule of run_exchange: true = overlapped (pack batch i+1 and
    /// consume batch i-1 while batch i is in flight); false = depth 0, the
    /// bulk-synchronous superstep. Identical outputs either way.
    bool overlap = true;
  };

  explicit Exchanger(Communicator& comm) : Exchanger(comm, Config()) {}
  Exchanger(Communicator& comm, Config cfg);

  /// No flush may be in flight at destruction (call wait() first); a batch
  /// packed but never flushed is simply dropped.
  ~Exchanger();

  Exchanger(const Exchanger&) = delete;
  Exchanger& operator=(const Exchanger&) = delete;

  int rank() const { return comm_.rank(); }
  int size() const { return comm_.size(); }
  const Config& config() const { return cfg_; }

  /// Append raw bytes to the current batch's payload for `dst`.
  void post_bytes(int dst, const void* data, std::size_t n);

  /// Append `n` items to the current batch's payload for `dst`.
  template <class T>
  void post(int dst, const T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>, "posted payload must be POD");
    post_bytes(dst, data, n * sizeof(T));
  }
  template <class T>
  void post(int dst, const std::vector<T>& v) {
    post(dst, v.data(), v.size());
  }

  /// Bytes posted to the current (unsealed) batch across all destinations.
  u64 pending_bytes() const { return pending_bytes_; }

  /// Seal the current batch and start exchanging it; nonblocking. `done`
  /// piggybacks this rank's termination bit to every peer. Collective: every
  /// rank flushes the same number of times in the same order relative to its
  /// other collectives. At most one flush may be in flight.
  void flush_async(bool done = false);

  bool in_flight() const { return in_flight_; }

  /// Block until the in-flight batch has fully arrived from every peer.
  RecvBatch wait();

 private:
  Communicator& comm_;
  Config cfg_;
  std::vector<std::vector<u8>> pack_;   ///< per-dst payload of the batch being packed
  std::vector<u64> flushed_bytes_;      ///< per-dst bytes of the in-flight batch
  u64 retries_before_ = 0;              ///< this rank's replay-retry tally at flush time
  u64 pending_bytes_ = 0;
  bool in_flight_ = false;
  u64 flight_epoch_ = 0;                ///< communicator epoch of the in-flight flush
  util::WallTimer flight_timer_;        ///< started at flush_async (hidden window)
};

/// Drive a complete exchange loop: `pack()` fills the exchanger's current
/// batch and returns true while this rank may still have more to send;
/// `consume(batch)` handles each arrived batch. The loop runs until the
/// first batch in which every rank reported done, and returns the number of
/// batches exchanged. The only place the schedule (Config::overlap) is
/// decided:
///
///  * depth 0 — `do { pack(); flush; consume(wait()); } while (!all_done)`,
///    the bulk-synchronous superstep with the stop vote piggybacked;
///  * overlapped — batch i+1 is packed and batch i-1 consumed while batch i
///    is in flight.
///
/// Both call pack() the same number of times and exchange the same batches,
/// so consumers see identical data in identical order.
template <class PackFn, class ConsumeFn>
u64 run_exchange(Exchanger& ex, PackFn&& pack, ConsumeFn&& consume) {
  const bool overlap = ex.config().overlap;
  bool more = pack();
  ex.flush_async(/*done=*/!more);
  u64 batches = 0;
  while (true) {
    // Overlapped: pack the next batch while the current one is in flight.
    // Safe to do speculatively: if this rank still has data, its done bit
    // on the in-flight batch is false, so the loop cannot terminate
    // underneath it.
    if (overlap && more) more = pack();
    RecvBatch batch = ex.wait();
    ++batches;
    const bool all_done = batch.all_done();
    if (overlap && !all_done) ex.flush_async(/*done=*/!more);
    consume(batch);
    if (all_done) return batches;
    if (!overlap) {
      if (more) more = pack();
      ex.flush_async(/*done=*/!more);
    }
  }
}

/// Post the next slice (at most `max_items` items) of every destination's
/// vector to `ex`, advancing `cursors`; returns true while any destination
/// has items left after this slice. The building block for batching a
/// single large pre-built exchange (stage 4's request lists, stage 5's byte
/// streams) in bounded batches.
template <class T>
bool post_slices(Exchanger& ex, const std::vector<std::vector<T>>& per_dest,
                 std::vector<std::size_t>& cursors, std::size_t max_items) {
  bool remaining = false;
  for (int d = 0; d < ex.size(); ++d) {
    const auto& v = per_dest[static_cast<std::size_t>(d)];
    auto& at = cursors[static_cast<std::size_t>(d)];
    std::size_t n = std::min(max_items, v.size() - at);
    ex.post(d, v.data() + at, n);
    at += n;
    if (at < v.size()) remaining = true;
  }
  return remaining;
}

}  // namespace dibella::comm
