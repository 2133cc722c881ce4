#pragma once
/// \file world_state.hpp
/// Internal shared state of a World's ranks. Not part of the public API —
/// include only from comm/*.cpp.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "util/checksum.hpp"
#include "util/common.hpp"

namespace dibella::comm::detail {

/// One Exchanger message travelling src -> dst: a flush's whole payload for
/// that destination. Every message is tagged with the sender's collective
/// epoch — one message per (src, dst, epoch) — and carries a reliability
/// frame — wire sequence number, payload length, CRC32 — so a truncated or
/// bit-flipped message is detected on receive and replaced from the
/// sender's replay buffer instead of being consumed as garbage.
struct MailboxMessage {
  u64 epoch = 0;             ///< sender's collective epoch at deposit time
  u8 sender_done = 0;        ///< piggybacked termination bit
  u64 wire_seq = 0;          ///< per-(src, dst) wire sequence number
  u64 payload_bytes = 0;     ///< expected bytes.size()
  u32 payload_crc = 0;       ///< CRC32 of the pristine payload
  /// Instant the wire copy becomes visible to the receiver (a delay fault
  /// pushes this into the future; default epoch == always visible).
  std::chrono::steady_clock::time_point visible_at{};
  std::vector<u8> bytes;
};

/// Shared state of all ranks of a World: per-peer mailbox slots used to move
/// payload bytes between ranks, the replay copies and fault tallies of the
/// self-healing protocol, and the poison flag. Exchange records are not kept
/// here: each rank's Communicator hands them to its record sink.
///
/// One deposit path and one consume path move every payload: a sender's
/// Exchanger flush deposits one epoch-tagged, framed message into each
/// (src, dst) mailbox and continues immediately (deposits never block, so
/// two ranks flushing at each other cannot deadlock); the receiver consumes
/// the message matching its own epoch, blocking only until that specific
/// deposit arrives. Exchange therefore needs no whole-world synchronization;
/// an empty round (every message without payload) serves as the barrier. A
/// consume that waits longer than the timeout poisons the world, so
/// mismatched collective sequences abort instead of deadlocking. Mailbox
/// depth is unbounded, but bounded in practice by the SPMD discipline: the
/// Exchanger keeps at most one flush in flight and drains every epoch it
/// flushes.
///
/// deposit() stores the wire copy and the sender-side replay copy under one
/// lock, so a receiver in consume() that sees the replay entry without a
/// consumable wire copy knows the message was lost or mangled in transit —
/// never merely "not sent yet" — and requests a retransmission (bounded,
/// with exponential backoff). In a fault-free run the replay buffer is not
/// even populated (it only exists while a FaultPlan is installed), so the
/// retry counters stay exactly zero and byte-identity of counters.tsv
/// across schedules is preserved.
class WorldState {
 public:
  /// Bounded retransmission: a message that cannot be validated after this
  /// many replay deliveries poisons the world (the transport is broken
  /// beyond what redundancy can absorb).
  static constexpr u32 kMaxRetransmits = 4;

  WorldState(int ranks, double timeout_seconds)
      : ranks_(ranks),
        timeout_(timeout_seconds),
        mailboxes_(static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks)),
        next_seq_(static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks), 0),
        replay_(static_cast<std::size_t>(ranks) * static_cast<std::size_t>(ranks)),
        fault_stats_(static_cast<std::size_t>(ranks)),
        rank_cv_(static_cast<std::size_t>(ranks)) {}

  int ranks() const { return ranks_; }

  void set_fault_plan(std::shared_ptr<const FaultPlan> plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    fault_plan_ = std::move(plan);
  }

  std::shared_ptr<const FaultPlan> fault_plan() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fault_plan_;
  }

  /// Deposit an Exchanger message into the src -> dst mailbox with the
  /// reliability frame stamped (wire sequence number, payload length,
  /// CRC32). Never blocks. Only the destination rank's thread ever consumes
  /// from its mailboxes, so the notify targets its cv alone — with ranks
  /// oversubscribed on few cores, waking every sleeping rank per deposit
  /// costs a context switch each. When a FaultPlan is installed the pristine
  /// copy is also stored in the sender's replay buffer — under the same lock
  /// as the wire deposit, which is what makes the receiver's "replay entry
  /// but no wire copy" test mean *lost*, never *early*. An injected
  /// transport `fault` then mangles only the wire copy.
  void deposit(int src, int dst, MailboxMessage msg, std::optional<FaultKind> fault) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      msg.wire_seq = next_seq_[pair_index(src, dst)]++;
      msg.payload_bytes = msg.bytes.size();
      // The CRC backs the self-healing retransmission protocol, which only
      // operates while a FaultPlan is installed — without one, in-process
      // mailbox bytes cannot be mangled, so skip the two full payload passes
      // the checksum would cost (stamped here, validated at consume).
      if (fault_plan_) {
        msg.payload_crc = util::crc32(msg.bytes.data(), msg.bytes.size());
        replay_[pair_index(src, dst)].insert_or_assign(msg.epoch, msg);
      } else {
        msg.payload_crc = 0;
      }
      bool insert = true;
      if (fault) {
        switch (*fault) {
          case FaultKind::kDrop:
            insert = false;
            break;
          case FaultKind::kDuplicate:
            mailbox(src, dst).push_back(msg);  // extra wire copy
            break;
          case FaultKind::kDelay:
            msg.visible_at = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(50);
            break;
          case FaultKind::kTruncate:
            // An empty payload has nothing to shorten; losing it entirely is
            // the nearest observable fault.
            if (msg.bytes.empty()) insert = false;
            else msg.bytes.resize(msg.bytes.size() / 2);
            break;
          case FaultKind::kBitFlip:
            if (msg.bytes.empty()) insert = false;
            else msg.bytes[msg.bytes.size() / 2] ^= u8{0x20};
            break;
          case FaultKind::kAbort:
            break;  // abort is not a transport fault; handled at fault_point()
        }
      }
      if (insert) mailbox(src, dst).push_back(std::move(msg));
    }
    rank_cv_[static_cast<std::size_t>(dst)].notify_all();
  }

  /// Consume the src -> dst Exchanger message of `epoch`, validating its
  /// reliability frame. Blocks until the message arrives; poisons on timeout
  /// (a peer never reached this flush). Messages of *other* epochs may sit
  /// in the box while we wait — a sender that has run ahead. A wire copy
  /// failing length/CRC validation is discarded (counted as corrupt); a
  /// message whose replay entry exists but which has no consumable wire copy
  /// — dropped, delayed past patience, or just discarded as corrupt — is
  /// retransmitted from the sender's pristine replay copy (counted as a
  /// retry; bounded, exponential backoff). Successful consumption purges
  /// every other wire copy of the same message (duplicate deliveries, late
  /// delayed originals) so redelivery is idempotent.
  ///
  /// Poison is honoured only once the message is neither in the box nor in
  /// the replay buffer: a message deposited before a sibling failed is still
  /// delivered, so a round every rank completed returns everywhere (rank 0
  /// may then mark a checkpoint whose payloads are all durable) and the
  /// failure surfaces at the rank's next consume.
  MailboxMessage consume(int src, int dst, u64 epoch) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto& box = mailbox(src, dst);
    u32 attempts = 0;
    while (true) {
      const auto now = std::chrono::steady_clock::now();
      bool rescan = false;
      for (auto it = box.begin(); it != box.end(); ++it) {
        if (it->epoch != epoch) continue;
        if (it->visible_at > now) continue;  // delayed on the wire
        if (it->bytes.size() != it->payload_bytes ||
            (fault_plan_ &&
             util::crc32(it->bytes.data(), it->bytes.size()) != it->payload_crc)) {
          box.erase(it);
          ++fault_stats_[static_cast<std::size_t>(dst)].corrupt_chunks;
          rescan = true;  // fall through to the replay path
          break;
        }
        MailboxMessage msg = std::move(*it);
        box.erase(it);
        // Idempotent receive: purge every other wire copy of this message
        // (duplicate deliveries, late-arriving delayed originals).
        for (auto jt = box.begin(); jt != box.end();) {
          if (jt->epoch == epoch) {
            jt = box.erase(jt);
            ++fault_stats_[static_cast<std::size_t>(dst)].redeliveries;
          } else {
            ++jt;
          }
        }
        return msg;
      }
      if (rescan) continue;
      // No valid visible wire copy. If the sender's replay buffer holds the
      // pristine message, the wire copy was lost or mangled (the replay entry
      // and the wire deposit are stored atomically, so "replayed but not
      // delivered" can never mean "not sent yet") — retransmit it.
      const MailboxMessage* pristine = find_replay(src, dst, epoch);
      if (pristine != nullptr) {
        if (attempts >= kMaxRetransmits) {
          poison_locked(std::make_exception_ptr(CommFailure(
              "exchange retransmission exhausted: message of epoch " +
              std::to_string(epoch) + " (" + std::to_string(src) + " -> " +
              std::to_string(dst) + ") failed validation " +
              std::to_string(kMaxRetransmits) + " times")));
          throw WorldPoisoned();
        }
        MailboxMessage copy = *pristine;
        copy.wire_seq = next_seq_[pair_index(src, dst)]++;
        copy.visible_at = {};
        box.push_back(std::move(copy));
        ++fault_stats_[static_cast<std::size_t>(dst)].retries;
        ++attempts;
        if (attempts > 1) {
          // Exponential backoff between repeated retransmissions.
          rank_cv_[static_cast<std::size_t>(dst)].wait_for(
              lock, std::chrono::milliseconds(1LL << attempts));
        }
        continue;
      }
      if (poisoned_) throw WorldPoisoned();
      // Wake on a new wire copy, or on the replay entry alone: a message
      // dropped in transit reaches the replay buffer but never the box, so
      // a box-size test by itself would sleep through it until the timeout.
      std::size_t seen = box.size();
      bool ok = rank_cv_[static_cast<std::size_t>(dst)].wait_for(
          lock, std::chrono::duration<double>(timeout_), [&] {
            return box.size() != seen || poisoned_ ||
                   find_replay(src, dst, epoch) != nullptr;
          });
      if (!ok) {
        poison_locked(std::make_exception_ptr(CommFailure(
            "exchange timeout: ranks executed mismatched collective sequences")));
        throw WorldPoisoned();
      }
    }
  }

  /// Called by receiver `dst` after a full Exchanger wait(): the batch of
  /// `epoch` is consumed, so drop its replay entries and purge any
  /// stragglers of that epoch still sitting in the mailboxes (counted as
  /// discarded redeliveries).
  void ack_exchange_epoch(int dst, u64 epoch) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int src = 0; src < ranks_; ++src) {
      replay_[pair_index(src, dst)].erase(epoch);
      auto& box = mailbox(src, dst);
      for (auto it = box.begin(); it != box.end();) {
        if (it->epoch == epoch) {
          it = box.erase(it);
          ++fault_stats_[static_cast<std::size_t>(dst)].redeliveries;
        } else {
          ++it;
        }
      }
    }
  }

  /// One receiving rank's self-healing tallies (per-exchange retry deltas
  /// for the ExchangeRecord accounting).
  CommFaultStats rank_fault_stats(int dst) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fault_stats_[static_cast<std::size_t>(dst)];
  }

  /// Self-healing-exchange tallies summed over receiving ranks.
  CommFaultStats sum_fault_stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    CommFaultStats total;
    for (const auto& s : fault_stats_) {
      total.retries += s.retries;
      total.redeliveries += s.redeliveries;
      total.corrupt_chunks += s.corrupt_chunks;
    }
    return total;
  }

  /// Record a failure; wakes every mailbox waiter. First failure wins.
  void poison(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex_);
    poison_locked(std::move(error));
  }

  bool poisoned() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return poisoned_;
  }

  std::exception_ptr first_error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_error_;
  }

  /// Reset between SPMD regions: clear poison, drop any messages and replay
  /// copies a failed run left behind (a clean run always drains every
  /// mailbox), and zero the fault tallies.
  void reset_poison() {
    std::lock_guard<std::mutex> lock(mutex_);
    poisoned_ = false;
    first_error_ = nullptr;
    for (auto& box : mailboxes_) box.clear();
    for (auto& r : replay_) r.clear();
    for (auto& s : fault_stats_) s = CommFaultStats{};
  }

 private:
  std::size_t pair_index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(ranks_) +
           static_cast<std::size_t>(dst);
  }

  std::deque<MailboxMessage>& mailbox(int src, int dst) {
    return mailboxes_[pair_index(src, dst)];
  }

  const MailboxMessage* find_replay(int src, int dst, u64 epoch) const {
    const auto& per_epoch = replay_[pair_index(src, dst)];
    auto it = per_epoch.find(epoch);
    return it == per_epoch.end() ? nullptr : &it->second;
  }

  void poison_locked(std::exception_ptr error) {
    if (!poisoned_) {
      poisoned_ = true;
      first_error_ = std::move(error);
    }
    for (auto& cv : rank_cv_) cv.notify_all();
  }

  const int ranks_;
  const double timeout_;
  std::vector<std::deque<MailboxMessage>> mailboxes_;
  std::vector<u64> next_seq_;  ///< per (src, dst) wire sequence counters
  /// Per (src, dst): the pristine message of each epoch, kept until the
  /// receiver acks the epoch. Populated only while a FaultPlan is installed.
  std::vector<std::map<u64, MailboxMessage>> replay_;
  std::vector<CommFaultStats> fault_stats_;  ///< per receiving rank

  mutable std::mutex mutex_;
  /// Per-destination-rank mailbox waiters: rank r's thread is the only
  /// consumer of its mailboxes, so deposits for r wake rank_cv_[r] alone.
  std::vector<std::condition_variable> rank_cv_;
  bool poisoned_ = false;
  std::exception_ptr first_error_;
  std::shared_ptr<const FaultPlan> fault_plan_;
};

}  // namespace dibella::comm::detail
