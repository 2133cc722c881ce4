#include "overlap/overlapper.hpp"

#include <algorithm>
#include <string>

#include "comm/exchanger.hpp"

namespace dibella::overlap {

int task_owner_read(u64 ra, u64 rb) {
  // Algorithm 1 (§8), verbatim: even ra takes tasks whose partner is
  // "sufficiently below" it, odd ra takes those above; everything else goes
  // to rb. With unordered, uniformly distributed read IDs this balances
  // task counts to within a fraction of a percent (§9: < 0.002%).
  if (ra % 2 == 0 && ra > rb + 1) return 0;  // owner of ra
  if (ra % 2 != 0 && ra < rb + 1) return 0;  // owner of ra
  return 1;                                  // owner of rb
}

namespace {

/// Longest encodings: a 64-bit varint, and one seed (pos_a, then pos_b << 1
/// | orientation).
constexpr std::size_t kMaxVarint = 10;
constexpr std::size_t kMaxSeedBytes = 10;

u8* put_varint(u8* p, u64 v) {
  while (v >= 0x80) {
    *p++ = static_cast<u8>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<u8>(v);
  return p;
}

/// Decode one varint from [p, end), advancing p. The tenth byte holds only
/// bit 63, so it must be 0 or 1: anything else is an eleventh byte or a
/// value past 64 bits.
u64 get_varint(const u8*& p, const u8* end) {
  u64 v = 0;
  for (int shift = 0;; shift += 7) {
    DIBELLA_CHECK(p != end, "pair run: truncated varint");
    const u8 byte = *p++;
    if (shift == 63) DIBELLA_CHECK(byte <= 1, "pair run: varint longer than 64 bits");
    v |= static_cast<u64>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
  }
}

}  // namespace

void PairKeys::check_reads(u64 reads) {
  DIBELLA_CHECK(reads <= kMaxReads, "overlap stage: " + std::to_string(reads) +
                                        " reads exceed the pair key's limit of " +
                                        std::to_string(kMaxReads));
}

void encode_pair_runs(std::vector<OverlapTask>& tasks, std::vector<u8>& out,
                      util::RadixScratch<OverlapTask>& scratch) {
  // Group by pair in one stable LSD radix call. Bits constant across the
  // keys get no digit, so a small read count costs only the digits it uses.
  util::radix_sort_u64(tasks, [](const OverlapTask& t) { return t.key; }, scratch);

  const auto same_pair = [&tasks](std::size_t i, std::size_t j) {
    return PairKeys::pair(tasks[i].key) == PairKeys::pair(tasks[j].key);
  };
  std::size_t runs = tasks.empty() ? 0 : 1;
  for (std::size_t i = 1; i < tasks.size(); ++i) runs += same_pair(i, i - 1) ? 0 : 1;
  const std::size_t base = out.size();
  out.resize(base + runs * 3 * kMaxVarint + tasks.size() * kMaxSeedBytes);
  u8* p = out.data() + base;
  u64 prev_rid_a = 0;
  for (std::size_t run = 0; run < tasks.size();) {
    std::size_t end = run + 1;
    while (end < tasks.size() && same_pair(end, run)) ++end;
    const u64 rid_a = PairKeys::rid_a(tasks[run].key);
    const u64 rid_b = PairKeys::rid_b(tasks[run].key);
    DIBELLA_CHECK(rid_a < rid_b, "overlap task key is not a pair rid_a < rid_b");
    p = put_varint(p, rid_a - prev_rid_a);
    p = put_varint(p, rid_b);
    p = put_varint(p, end - run);
    for (std::size_t i = run; i < end; ++i) {
      p = put_varint(p, tasks[i].pos_a);
      p = put_varint(p, (static_cast<u64>(tasks[i].pos_b) << 1) |
                            PairKeys::same_orientation(tasks[i].key));
    }
    prev_rid_a = rid_a;
    run = end;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

void PairSeedTable::add_runs(const u8* data, std::size_t size) {
  // Validate the whole payload before keeping any of it, so a rejected
  // payload adds nothing.
  const u8* p = data;
  const u8* const end = data + size;
  bool first = true;
  u64 rid_a = 0, rid_b = 0, seeds = 0;
  while (p != end) {
    const u64 delta = get_varint(p, end);
    DIBELLA_CHECK(delta <= ~u64{0} - rid_a, "pair run: rid_a overflows the pair key");
    const u64 next_a = rid_a + delta;
    const u64 next_b = get_varint(p, end);
    DIBELLA_CHECK(next_a < next_b, "pair run: rid_a must be below rid_b");
    DIBELLA_CHECK(first || delta > 0 || next_b > rid_b, "pair run: runs out of order");
    first = false;
    rid_a = next_a;
    rid_b = next_b;
    const u64 count = get_varint(p, end);
    // A seed is at least two bytes: bound the count before reading seeds.
    DIBELLA_CHECK(count >= 1 && count <= static_cast<u64>(end - p) / 2,
                  "pair run: seed count does not fit the payload");
    for (u64 i = 0; i < count; ++i) {
      const u64 pos_a = get_varint(p, end);
      const u64 pos_b = get_varint(p, end);
      DIBELLA_CHECK(pos_a <= ~u32{0} && (pos_b >> 33) == 0,
                    "pair run: seed position out of range");
    }
    seeds += count;
  }
  if (size > 0) payloads_.emplace_back(data, end);
  seeds_ += seeds;
}

u64 PairSeedTable::held_bytes() const {
  u64 bytes = payloads_.capacity() * sizeof(std::vector<u8>);
  for (const auto& payload : payloads_) bytes += payload.capacity();
  return bytes;
}

std::vector<AlignmentTask> PairSeedTable::consolidate(const SeedFilterConfig& seed_filter,
                                                      OverlapStageResult* result) {
  const std::vector<std::vector<u8>> payloads = std::move(payloads_);
  const u64 seeds = seeds_;
  payloads_.clear();
  seeds_ = 0;

  // K-way merge of the payloads, each ascending by pair: a min-heap of one
  // cursor per payload yields every run of a pair consecutively, and decodes
  // each payload front to back. add_runs validated every byte, so the
  // decoder here reads without bounds checks.
  struct Cursor {
    u64 rid_a = 0;
    u64 rid_b = 0;
    u64 count = 0;             ///< seeds of the current run
    const u8* p = nullptr;     ///< the current run's first seed
    const u8* end = nullptr;   ///< past the payload's last byte
  };
  const auto read_varint = [](const u8*& p) {
    u64 v = 0;
    for (int shift = 0;; shift += 7) {
      const u8 byte = *p++;
      v |= static_cast<u64>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
  };
  const auto read_header = [&read_varint](Cursor& c) {
    c.rid_a += read_varint(c.p);
    c.rid_b = read_varint(c.p);
    c.count = read_varint(c.p);
  };
  const auto later = [](const Cursor& x, const Cursor& y) {
    return x.rid_a != y.rid_a ? x.rid_a > y.rid_a : x.rid_b > y.rid_b;
  };
  std::vector<Cursor> heap;
  heap.reserve(payloads.size());
  for (const auto& payload : payloads) {
    heap.push_back(Cursor{0, 0, 0, payload.data(), payload.data() + payload.size()});
    read_header(heap.back());
  }
  std::make_heap(heap.begin(), heap.end(), later);

  // Per pair, its seeds from every payload are decoded into one SeedSorter,
  // which sorts and deduplicates them, so the arrival order does not matter.
  std::vector<AlignmentTask> tasks;
  SeedSorter sorter;
  u64 after = 0;
  while (!heap.empty()) {
    const u64 rid_a = heap.front().rid_a, rid_b = heap.front().rid_b;
    while (!heap.empty() && heap.front().rid_a == rid_a && heap.front().rid_b == rid_b) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor& cur = heap.back();
      for (u64 i = 0; i < cur.count; ++i) {
        const u64 pos_a = read_varint(cur.p);
        const u64 pos_b = read_varint(cur.p);
        sorter.add(static_cast<u32>(pos_a), static_cast<u32>(pos_b >> 1),
                   static_cast<u8>(pos_b & 1u));
      }
      if (cur.p != cur.end) {
        read_header(cur);
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    }
    tasks.push_back(AlignmentTask{rid_a, rid_b, sorter.filter(seed_filter)});
    after += tasks.back().seeds.size();
  }
  if (result) {
    result->pair_tasks_received = seeds;
    result->distinct_pairs = tasks.size();
    result->seeds_before_filter = seeds;
    result->seeds_after_filter = after;
  }
  return tasks;
}

std::vector<AlignmentTask> run_overlap_stage(core::StageContext& ctx,
                                             const dht::LocalKmerTable& table,
                                             const io::ReadPartition& partition,
                                             const OverlapStageConfig& cfg,
                                             OverlapStageResult* result) {
  auto& comm = ctx.comm;
  comm.set_stage("overlap");
  OverlapStageResult res;

  // --- Algorithm 1: traverse the partition, form all pairs per key, route
  // each task to the owner of one of its reads. Tasks travel in bounded
  // batches: each pack() traverses enough of the partition to form the next
  // ~batch_tasks tasks (overlapped: while the previous batch is in flight),
  // stages them per destination and posts them as pair runs.
  comm::Exchanger ex(comm, cfg.exchange);
  PairKeys::check_reads(partition.total_reads());
  std::vector<std::vector<OverlapTask>> staged(static_cast<std::size_t>(ex.size()));
  std::vector<std::size_t> owners;  // per occurrence of the visited key
  auto visit = [&res, &partition, &staged, &owners](
                   const kmer::Kmer& /*km*/, u32 /*count*/,
                   std::vector<dht::ReadOccurrence>& occs) {
    ++res.retained_kmers;
    // Deterministic pair formation independent of arrival order; `occs` is
    // the traversal's reusable scratch, sorted in place (no per-key copy).
    // Sorted by rid, every pair below has rid_a < rid_b, as its key needs.
    std::sort(occs.begin(), occs.end(),
              [](const dht::ReadOccurrence& x, const dht::ReadOccurrence& y) {
                return x.rid != y.rid ? x.rid < y.rid : x.pos < y.pos;
              });
    owners.clear();
    for (const auto& occ : occs) {
      owners.push_back(static_cast<std::size_t>(partition.owner_of(occ.rid)));
    }
    for (std::size_t i = 0; i + 1 < occs.size(); ++i) {
      for (std::size_t j = i + 1; j < occs.size(); ++j) {
        const auto& oa = occs[i];
        const auto& ob = occs[j];
        if (oa.rid == ob.rid) continue;  // a repeat within one read is not an overlap
        const std::size_t owner = task_owner_read(oa.rid, ob.rid) == 0 ? owners[i] : owners[j];
        const u8 same = oa.is_forward == ob.is_forward ? 1 : 0;
        staged[owner].push_back(OverlapTask{PairKeys::key(oa.rid, ob.rid, same), oa.pos, ob.pos});
        ++res.pair_tasks_formed;
      }
    }
  };

  PairSeedTable received;
  std::vector<u8> runs;
  util::RadixScratch<OverlapTask> sort_scratch;
  std::vector<dht::ReadOccurrence> scratch;
  std::size_t slot_cursor = 0;
  comm::run_exchange(
      ex,
      [&] {
        auto k = ctx.kernel("overlap:traverse");
        u64 keys_before = res.retained_kmers;
        u64 formed_before = res.pair_tasks_formed;
        // Visit keys in bounded strides until the task budget fills (a
        // single hub key may overshoot by its own pair count, the same
        // granularity the streaming stages batch at).
        while (slot_cursor < table.capacity() &&
               res.pair_tasks_formed - formed_before < cfg.batch_tasks) {
          slot_cursor = table.for_each_from(slot_cursor, 256, scratch, visit);
        }
        u64 posted = 0;
        for (int d = 0; d < ex.size(); ++d) {
          auto& tasks = staged[static_cast<std::size_t>(d)];
          runs.clear();
          encode_pair_runs(tasks, runs, sort_scratch);
          tasks.clear();
          ex.post_bytes(d, runs.data(), runs.size());
          posted += runs.size();
        }
        k.units("keys", res.retained_kmers - keys_before, netsim::Kernel::kTableTraverse)
            .arg("tasks", res.pair_tasks_formed - formed_before)
            .units("bytes", posted, netsim::Kernel::kByteCopy)
            .working_set(table.memory_bytes() + posted);
        return slot_cursor < table.capacity();
      },
      [&](const comm::RecvBatch& batch) {
        // Each source's payload is a whole number of runs, validated and
        // kept here (overlapped: while the next batch is in flight).
        auto k = ctx.kernel("overlap:recv");
        for (int src = 0; src < ex.size(); ++src) {
          received.add_runs(batch.src_data(src), batch.src_size_bytes(src));
        }
        const u64 bytes = batch.total_bytes();
        k.units("bytes", bytes, netsim::Kernel::kByteCopy).working_set(bytes);
      });

  // --- merge the payloads by pair, then apply the seed policy per pair.
  auto consolidate = ctx.kernel("overlap:consolidate");
  consolidate.units("tasks", received.seeds(), netsim::Kernel::kPairRuns)
      .working_set(received.held_bytes());
  std::vector<AlignmentTask> tasks = received.consolidate(cfg.seed_filter, &res);
  consolidate.close();

  if (result) *result = res;
  return tasks;
}

}  // namespace dibella::overlap
