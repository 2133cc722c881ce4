#pragma once
/// \file local_table.hpp
/// One rank's partition of the distributed k-mer hash table.
///
/// Maps a canonical k-mer to its global count and the list of
/// (read id, position, orientation) occurrences — the payload that makes
/// this table a *read-overlap* graph rather than HipMer's de Bruijn graph
/// (§11). Open addressing with linear probing over power-of-two capacity;
/// occurrence lists live in a side pool of linked nodes so slots stay
/// trivially relocatable on rehash.
///
/// Memory bound: occurrence storage is capped per key at `occurrence_cap`
/// (pipeline sets it to m+1): any k-mer with more occurrences than the
/// high-frequency threshold will be purged anyway, so storing its full list
/// would only waste memory. Counting continues past the cap.

#include <vector>

#include "kmer/kmer.hpp"
#include "util/common.hpp"

namespace dibella::dht {

/// One observation of a k-mer inside a read.
struct ReadOccurrence {
  u64 rid = 0;       ///< global read id
  u32 pos = 0;       ///< window start within the read
  u8 is_forward = 1;  ///< 1 when the canonical form equals the read-local form
};

class LocalKmerTable {
 public:
  explicit LocalKmerTable(std::size_t expected_keys = 1024, u32 occurrence_cap = 256);

  /// Register a key with zero count (stage 1: Bloom-approved candidates).
  /// Returns true when the key was newly inserted.
  bool insert_key(const kmer::Kmer& km);

  bool contains(const kmer::Kmer& km) const;

  /// Record one occurrence of a *resident* key (stage 2); increments the
  /// count and stores the occurrence while under the cap. Returns false
  /// (and does nothing) when the key is not resident.
  bool add_occurrence(const kmer::Kmer& km, const ReadOccurrence& occ);

  /// Count of a key (0 when absent).
  u32 count(const kmer::Kmer& km) const;

  /// Stored occurrences of a key, in insertion order.
  std::vector<ReadOccurrence> occurrences(const kmer::Kmer& km) const;

  /// Append a key's stored occurrences (insertion order) to a caller-owned
  /// scratch vector — the allocation-free form of occurrences(). No-op when
  /// the key is absent.
  void append_occurrences(const kmer::Kmer& km, std::vector<ReadOccurrence>& out) const;

  /// Remove every key whose count lies outside [min_count, max_count] —
  /// the singleton / high-frequency purge of §7. Returns number removed.
  std::size_t purge_outside(u32 min_count, u32 max_count);

  /// Visit every resident key: fn(const kmer::Kmer&, u32 count,
  /// std::vector<ReadOccurrence>& occurrences). The occurrence vector is a
  /// scratch buffer reused across keys (one allocation per traversal, not
  /// per key); it is refilled in insertion order before each visit and the
  /// callback may reorder or consume it freely.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::vector<ReadOccurrence> scratch;
    for_each_from(0, slots_.size(), scratch, fn);
  }

  /// Resumable bounded traversal: visit up to `max_keys` resident keys
  /// starting at slot `slot_cursor` (same callback contract and visit order
  /// as for_each; `scratch` is the caller-owned reusable occurrence buffer).
  /// Returns the slot cursor to resume from; traversal is exhausted when it
  /// reaches capacity(). Lets the overlap stage interleave pair formation
  /// with the in-flight task exchange.
  template <class Fn>
  std::size_t for_each_from(std::size_t slot_cursor, std::size_t max_keys,
                            std::vector<ReadOccurrence>& scratch, Fn&& fn) const {
    std::size_t visited = 0;
    std::size_t i = slot_cursor;
    for (; i < slots_.size() && visited < max_keys; ++i) {
      if (state_[i] != SlotState::kFull) continue;
      scratch.clear();
      append_occurrences_of_slot(i, scratch);
      fn(slots_[i].key, slots_[i].count, scratch);
      ++visited;
    }
    return i;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  u32 occurrence_cap() const { return occ_cap_; }
  double load_factor() const {
    return slots_.empty() ? 0.0
                          : static_cast<double>(size_) / static_cast<double>(slots_.size());
  }
  /// Approximate heap bytes (table + occurrence pool) — the working-set
  /// figure fed to the cache model.
  u64 memory_bytes() const;

 private:
  enum class SlotState : u8 { kEmpty = 0, kFull = 1 };

  struct Slot {
    kmer::Kmer key;
    u32 count = 0;
    i32 head = -1;  ///< first occurrence node index, -1 = none
    u32 stored = 0;  ///< occurrences stored (<= occ_cap_)
  };

  struct OccNode {
    ReadOccurrence occ;
    i32 next = -1;
  };

  std::size_t probe(const kmer::Kmer& km) const;  // slot of key or its insert point
  void maybe_grow();
  void rehash(std::size_t new_capacity);
  std::vector<ReadOccurrence> collect_occurrences(std::size_t slot) const;
  void append_occurrences_of_slot(std::size_t slot, std::vector<ReadOccurrence>& out) const;

  std::vector<Slot> slots_;
  std::vector<SlotState> state_;
  std::vector<OccNode> pool_;
  std::size_t size_ = 0;
  u32 occ_cap_;
};

}  // namespace dibella::dht
