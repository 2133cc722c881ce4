#include "dht/local_table.hpp"

#include <algorithm>
#include <bit>

namespace dibella::dht {

namespace {
constexpr u64 kProbeSalt = 0xD1B3117A;
constexpr double kMaxLoad = 0.6;

std::size_t round_up_pow2(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(n, 16));
}
}  // namespace

LocalKmerTable::LocalKmerTable(std::size_t expected_keys, u32 occurrence_cap)
    : occ_cap_(occurrence_cap) {
  std::size_t cap = round_up_pow2(
      static_cast<std::size_t>(static_cast<double>(expected_keys) / kMaxLoad) + 1);
  slots_.resize(cap);
  state_.assign(cap, SlotState::kEmpty);
}

std::size_t LocalKmerTable::probe(const kmer::Kmer& km) const {
  std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(km.hash(kProbeSalt)) & mask;
  while (state_[i] == SlotState::kFull && !(slots_[i].key == km)) {
    i = (i + 1) & mask;
  }
  return i;
}

void LocalKmerTable::maybe_grow() {
  if (static_cast<double>(size_ + 1) >
      kMaxLoad * static_cast<double>(slots_.size())) {
    rehash(slots_.size() * 2);
  }
}

void LocalKmerTable::rehash(std::size_t new_capacity) {
  std::vector<Slot> old_slots = std::move(slots_);
  std::vector<SlotState> old_state = std::move(state_);
  slots_.assign(new_capacity, Slot{});
  state_.assign(new_capacity, SlotState::kEmpty);
  for (std::size_t i = 0; i < old_slots.size(); ++i) {
    if (old_state[i] != SlotState::kFull) continue;
    std::size_t j = probe(old_slots[i].key);
    slots_[j] = old_slots[i];
    state_[j] = SlotState::kFull;
  }
  // Occurrence pool nodes are index-referenced, unaffected by slot moves.
}

bool LocalKmerTable::insert_key(const kmer::Kmer& km) {
  maybe_grow();
  std::size_t i = probe(km);
  if (state_[i] == SlotState::kFull) return false;
  slots_[i] = Slot{};
  slots_[i].key = km;
  state_[i] = SlotState::kFull;
  ++size_;
  return true;
}

bool LocalKmerTable::contains(const kmer::Kmer& km) const {
  return state_[probe(km)] == SlotState::kFull;
}

bool LocalKmerTable::add_occurrence(const kmer::Kmer& km, const ReadOccurrence& occ) {
  std::size_t i = probe(km);
  if (state_[i] != SlotState::kFull) return false;
  Slot& slot = slots_[i];
  ++slot.count;
  if (slot.stored < occ_cap_) {
    pool_.push_back(OccNode{occ, slot.head});
    slot.head = static_cast<i32>(pool_.size()) - 1;
    ++slot.stored;
  }
  return true;
}

u32 LocalKmerTable::count(const kmer::Kmer& km) const {
  std::size_t i = probe(km);
  return state_[i] == SlotState::kFull ? slots_[i].count : 0;
}

void LocalKmerTable::append_occurrences_of_slot(std::size_t slot,
                                                std::vector<ReadOccurrence>& out) const {
  const std::size_t start = out.size();
  for (i32 n = slots_[slot].head; n >= 0; n = pool_[static_cast<std::size_t>(n)].next) {
    out.push_back(pool_[static_cast<std::size_t>(n)].occ);
  }
  // Nodes are pushed at the head; reverse to restore insertion order.
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
}

std::vector<ReadOccurrence> LocalKmerTable::collect_occurrences(std::size_t slot) const {
  std::vector<ReadOccurrence> out;
  out.reserve(slots_[slot].stored);
  append_occurrences_of_slot(slot, out);
  return out;
}

std::vector<ReadOccurrence> LocalKmerTable::occurrences(const kmer::Kmer& km) const {
  std::size_t i = probe(km);
  if (state_[i] != SlotState::kFull) return {};
  return collect_occurrences(i);
}

void LocalKmerTable::append_occurrences(const kmer::Kmer& km,
                                        std::vector<ReadOccurrence>& out) const {
  std::size_t i = probe(km);
  if (state_[i] != SlotState::kFull) return;
  append_occurrences_of_slot(i, out);
}

std::size_t LocalKmerTable::purge_outside(u32 min_count, u32 max_count) {
  // Collect survivors, rebuild both the table and the occurrence pool
  // (purging typically removes 85-98% of keys — §9 — so rebuilding is far
  // cheaper than tombstones).
  struct Survivor {
    Slot slot;
    std::vector<ReadOccurrence> occs;
  };
  std::vector<Survivor> keep;
  keep.reserve(size_ / 4);
  std::size_t removed = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (state_[i] != SlotState::kFull) continue;
    if (slots_[i].count < min_count || slots_[i].count > max_count) {
      ++removed;
      continue;
    }
    keep.push_back(Survivor{slots_[i], collect_occurrences(i)});
  }
  std::size_t cap = round_up_pow2(
      static_cast<std::size_t>(static_cast<double>(keep.size()) / kMaxLoad) + 1);
  slots_.assign(cap, Slot{});
  state_.assign(cap, SlotState::kEmpty);
  pool_.clear();
  size_ = 0;
  for (auto& s : keep) {
    std::size_t i = probe(s.slot.key);
    slots_[i].key = s.slot.key;
    slots_[i].count = s.slot.count;
    slots_[i].head = -1;
    slots_[i].stored = 0;
    state_[i] = SlotState::kFull;
    ++size_;
    // Re-adding in insertion order keeps chains head-linked newest-first,
    // which collect_occurrences reverses back to insertion order.
    for (const auto& occ : s.occs) {
      pool_.push_back(OccNode{occ, slots_[i].head});
      slots_[i].head = static_cast<i32>(pool_.size()) - 1;
      ++slots_[i].stored;
    }
  }
  return removed;
}

u64 LocalKmerTable::memory_bytes() const {
  return static_cast<u64>(slots_.size() * sizeof(Slot) + state_.size() +
                          pool_.size() * sizeof(OccNode));
}

}  // namespace dibella::dht
