#include "comm/exchanger.hpp"

#include <algorithm>
#include <optional>

#include "comm/detail/world_state.hpp"
#include "comm/fault.hpp"

namespace dibella::comm {

Exchanger::Exchanger(Communicator& comm, Config cfg)
    : comm_(comm),
      cfg_(cfg),
      pack_(static_cast<std::size_t>(comm.size())),
      flushed_bytes_(static_cast<std::size_t>(comm.size()), 0) {
  DIBELLA_CHECK(cfg_.chunk_bytes > 0, "Exchanger: chunk_bytes must be > 0");
}

Exchanger::~Exchanger() {
  // Can't throw from a destructor; an in-flight flush at destruction is a
  // protocol bug that the peers' consume() timeout will surface.
}

void Exchanger::post_bytes(int dst, const void* data, std::size_t n) {
  DIBELLA_CHECK(dst >= 0 && dst < comm_.size(), "Exchanger::post: dst out of range");
  auto& buf = pack_[static_cast<std::size_t>(dst)];
  if (n > 0) {
    const u8* p = static_cast<const u8*>(data);
    buf.insert(buf.end(), p, p + n);
  }
  pending_bytes_ += n;
}

void Exchanger::flush_async(bool done) {
  DIBELLA_CHECK(!in_flight_, "Exchanger::flush_async: previous flush not waited");
  const int P = comm_.size();
  // Announce the flush as a collective fault point; an injected transport
  // fault for this (stage, index, rank) mangles exactly one wire chunk — the
  // first chunk of the payload to the next-neighbour destination.
  const u64 fault_index = comm_.fault_point();
  const std::optional<FaultKind> fault =
      comm_.fault_plan_
          ? comm_.fault_plan_->transport_fault(comm_.stage(), fault_index, comm_.rank())
          : std::nullopt;
  const int fault_dst = (comm_.rank() + 1) % P;
  flight_epoch_ = comm_.epoch_;
  flushed_chunks_ = 0;
  retries_before_ = comm_.state_.rank_fault_stats(comm_.rank()).retries;
  for (int d = 0; d < P; ++d) {
    auto& buf = pack_[static_cast<std::size_t>(d)];
    flushed_bytes_[static_cast<std::size_t>(d)] = buf.size();
    // Split into a chunk train of >= 1 chunks (an empty payload still sends
    // one empty chunk so the receiver always has a deposit to match).
    u32 chunks = static_cast<u32>(
        std::max<u64>(1, (buf.size() + cfg_.chunk_bytes - 1) / cfg_.chunk_bytes));
    if (d != comm_.rank()) flushed_chunks_ += chunks;
    for (u32 c = 0; c < chunks; ++c) {
      detail::MailboxMessage msg;
      msg.epoch = flight_epoch_;
      msg.chunk_index = c;
      msg.chunk_count = chunks;
      msg.sender_done = done ? 1 : 0;
      if (chunks == 1) {
        msg.bytes = std::move(buf);  // single-chunk fast path: no copy
      } else {
        u64 begin = static_cast<u64>(c) * cfg_.chunk_bytes;
        u64 end = std::min<u64>(buf.size(), begin + cfg_.chunk_bytes);
        msg.bytes.assign(buf.begin() + static_cast<std::ptrdiff_t>(begin),
                         buf.begin() + static_cast<std::ptrdiff_t>(end));
      }
      const bool mangle = fault && d == fault_dst && c == 0;
      comm_.state_.deposit(comm_.rank(), d, std::move(msg), mangle ? fault : std::nullopt);
    }
    buf.clear();
  }
  comm_.advance_epoch();
  pending_bytes_ = 0;
  in_flight_ = true;
  flight_timer_.reset();
  if (comm_.start_sink_) comm_.start_sink_();
}

RecvBatch Exchanger::wait() {
  DIBELLA_CHECK(in_flight_, "Exchanger::wait: no flush in flight");
  const int P = comm_.size();
  const double hidden = flight_timer_.seconds();
  util::WallTimer exposed_timer;

  // Take every source's chunk train first, then size the batch once and
  // copy each chunk into place.
  RecvBatch batch;
  batch.src_offsets.assign(static_cast<std::size_t>(P) + 1, 0);
  batch.done_flags.assign(static_cast<std::size_t>(P), 0);
  std::vector<detail::MailboxMessage> chunks;
  u64 total = 0;
  for (int s = 0; s < P; ++s) {
    const std::size_t first = chunks.size();
    chunks.push_back(comm_.state_.consume(s, comm_.rank(), flight_epoch_, /*chunk_index=*/0));
    for (u32 c = 1; c < chunks[first].chunk_count; ++c) {
      chunks.push_back(comm_.state_.consume(s, comm_.rank(), flight_epoch_, c));
    }
    batch.done_flags[static_cast<std::size_t>(s)] = chunks[first].sender_done;
    for (std::size_t i = first; i < chunks.size(); ++i) total += chunks[i].bytes.size();
    batch.src_offsets[static_cast<std::size_t>(s) + 1] = total;
  }
  if (chunks.size() == 1) {
    batch.bytes = std::move(chunks[0].bytes);  // one rank, one chunk: no copy
  } else {
    batch.bytes.resize(total);
    u8* at = batch.bytes.data();
    for (const detail::MailboxMessage& m : chunks) {
      if (!m.bytes.empty()) std::memcpy(at, m.bytes.data(), m.bytes.size());
      at += m.bytes.size();
    }
  }
  comm_.state_.ack_exchange_epoch(comm_.rank(), flight_epoch_);
  in_flight_ = false;

  ExchangeRecord rec = comm_.start_record(CollectiveOp::kExchange);
  for (int d = 0; d < P; ++d) {
    if (d != comm_.rank()) {
      rec.bytes_to_peer[static_cast<std::size_t>(d)] =
          flushed_bytes_[static_cast<std::size_t>(d)];
    }
  }
  rec.hidden_wall_seconds = hidden;
  rec.chunks = flushed_chunks_;
  rec.retries =
      comm_.state_.rank_fault_stats(comm_.rank()).retries - retries_before_;
  comm_.finish_record(std::move(rec), exposed_timer.seconds());
  return batch;
}

}  // namespace dibella::comm
