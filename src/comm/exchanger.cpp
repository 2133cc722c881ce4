#include "comm/exchanger.hpp"

#include <optional>

#include "comm/detail/world_state.hpp"
#include "comm/fault.hpp"

namespace dibella::comm {

Exchanger::Exchanger(Communicator& comm, Config cfg)
    : comm_(comm),
      cfg_(cfg),
      pack_(static_cast<std::size_t>(comm.size())),
      flushed_bytes_(static_cast<std::size_t>(comm.size()), 0) {}

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
  // fault for this (stage, index, rank) mangles exactly one wire message —
  // the payload to the next-neighbour destination.
  const u64 fault_index = comm_.fault_point();
  const std::optional<FaultKind> fault =
      comm_.fault_plan_
          ? comm_.fault_plan_->transport_fault(comm_.stage(), fault_index, comm_.rank())
          : std::nullopt;
  const int fault_dst = (comm_.rank() + 1) % P;
  flight_epoch_ = comm_.epoch_;
  retries_before_ = comm_.state_.rank_fault_stats(comm_.rank()).retries;
  for (int d = 0; d < P; ++d) {
    // One message per destination, empty ones included, so the receiver
    // always has a deposit to match; the pack buffer moves in whole.
    auto& buf = pack_[static_cast<std::size_t>(d)];
    flushed_bytes_[static_cast<std::size_t>(d)] = buf.size();
    detail::MailboxMessage msg;
    msg.epoch = flight_epoch_;
    msg.sender_done = done ? 1 : 0;
    msg.bytes = std::move(buf);
    buf.clear();
    comm_.state_.deposit(comm_.rank(), d, std::move(msg),
                         d == fault_dst ? fault : std::nullopt);
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

  RecvBatch batch;
  batch.from.resize(static_cast<std::size_t>(P));
  batch.done_flags.assign(static_cast<std::size_t>(P), 0);
  for (int s = 0; s < P; ++s) {
    detail::MailboxMessage msg = comm_.state_.consume(s, comm_.rank(), flight_epoch_);
    batch.done_flags[static_cast<std::size_t>(s)] = msg.sender_done;
    batch.from[static_cast<std::size_t>(s)] = std::move(msg.bytes);
  }
  comm_.state_.ack_exchange_epoch(comm_.rank(), flight_epoch_);
  in_flight_ = false;

  ExchangeRecord rec;
  rec.bytes_to_peer = flushed_bytes_;
  rec.bytes_to_peer[static_cast<std::size_t>(comm_.rank())] = 0;  // never on the wire
  rec.wall_seconds = exposed_timer.seconds();
  rec.hidden_wall_seconds = hidden;
  rec.retries =
      comm_.state_.rank_fault_stats(comm_.rank()).retries - retries_before_;
  comm_.record_exchange(std::move(rec));
  return batch;
}

}  // namespace dibella::comm
