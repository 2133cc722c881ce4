#include "overlap/overlapper.hpp"

#include <algorithm>

#include "comm/exchanger.hpp"
#include "util/radix_sort.hpp"

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

void sort_wire_tasks(std::vector<OverlapTaskWire>& tasks) {
  const std::size_t n = tasks.size();
  if (n < 2) return;

  // Tuple order (rid_a, rid_b, pos_a, pos_b, same_orientation) packs into
  // two u64 keys when pos_a < 2^31 and both rids < 2^32 — sorting by the
  // position key then (stably) by the rid key reproduces the full-tuple
  // order with two radix calls instead of four.
  auto pos_key = [](const OverlapTaskWire& t) {
    return (static_cast<u64>(t.pos_a) << 33) |
           (static_cast<u64>(t.pos_b) << 1) | static_cast<u64>(t.same_orientation);
  };
  auto rid_key = [](const OverlapTaskWire& t) { return (t.rid_a << 32) | t.rid_b; };

  // One scan: packability, plus each key's per-byte constancy. A byte whose
  // OR- and AND-aggregates agree holds one value across the whole set, and
  // radix_sort_u64 skips it — the remaining bytes are the passes a radix
  // chain would actually stream the element array through.
  bool packable = true;
  u64 or_pos = 0, and_pos = ~u64{0}, or_rid = 0, and_rid = ~u64{0};
  for (const auto& t : tasks) {
    if (t.pos_a >= (u32{1} << 31) || (t.rid_a >> 32) != 0 || (t.rid_b >> 32) != 0) {
      packable = false;
      break;
    }
    const u64 pk = pos_key(t), rk = rid_key(t);
    or_pos |= pk;
    and_pos &= pk;
    or_rid |= rk;
    and_rid &= rk;
  }
  if (!packable) {
    // Arbitrary-width fallback: the original four-component chain.
    util::radix_sort_u64(tasks, [](const OverlapTaskWire& t) {
      return (static_cast<u64>(t.pos_b) << 1) | static_cast<u64>(t.same_orientation);
    });
    util::radix_sort_u64(tasks,
                         [](const OverlapTaskWire& t) { return static_cast<u64>(t.pos_a); });
    util::radix_sort_u64(tasks, [](const OverlapTaskWire& t) { return t.rid_b; });
    util::radix_sort_u64(tasks, [](const OverlapTaskWire& t) { return t.rid_a; });
    return;
  }

  int passes = 0;
  for (int b = 0; b < 8; ++b) {
    const int shift = 8 * b;
    if (((or_pos >> shift) & 0xFFu) != ((and_pos >> shift) & 0xFFu)) ++passes;
    if (((or_rid >> shift) & 0xFFu) != ((and_rid >> shift) & 0xFFu)) ++passes;
  }

  // Cutover (measured on this element type): each radix pass streams the
  // whole array, so at >= 7 passes comparison sort overtakes it once n is
  // large enough that the passes outweigh log2(n) cheap comparisons. Ties in
  // the full tuple are identical elements, so the unstable std::sort still
  // yields a deterministic sequence.
  const bool use_comparison = n > (std::size_t{1} << 17) && passes >= 7;
  if (use_comparison) {
    std::sort(tasks.begin(), tasks.end(),
              [&](const OverlapTaskWire& x, const OverlapTaskWire& y) {
                const u64 rx = rid_key(x), ry = rid_key(y);
                return rx != ry ? rx < ry : pos_key(x) < pos_key(y);
              });
  } else {
    util::radix_sort_u64(tasks, pos_key);
    util::radix_sort_u64(tasks, rid_key);
  }
}

std::vector<AlignmentTask> consolidate_tasks(std::vector<OverlapTaskWire> incoming,
                                             const SeedFilterConfig& seed_filter,
                                             OverlapStageResult* result) {
  if (result) result->pair_tasks_received = incoming.size();

  // Normalize to rid_a < rid_b, then sort the flat vector and group equal
  // runs — the former node-per-pair std::map made every insertion an
  // allocation plus a pointer chase. The sort picks radix or comparison by
  // input size and key width (see sort_wire_tasks). The full-tuple key keeps
  // the order (and thus the output) deterministic regardless of arrival
  // order; filter_seeds re-sorts and deduplicates per pair anyway.
  for (auto& t : incoming) {
    if (t.rid_a > t.rid_b) {
      std::swap(t.rid_a, t.rid_b);
      std::swap(t.pos_a, t.pos_b);
    }
  }
  sort_wire_tasks(incoming);

  std::vector<AlignmentTask> tasks;
  std::size_t run = 0;
  while (run < incoming.size()) {
    std::size_t end = run;
    while (end < incoming.size() && incoming[end].rid_a == incoming[run].rid_a &&
           incoming[end].rid_b == incoming[run].rid_b) {
      ++end;
    }
    std::vector<SeedPair> seeds;
    seeds.reserve(end - run);
    for (std::size_t i = run; i < end; ++i) {
      seeds.push_back(SeedPair{incoming[i].pos_a, incoming[i].pos_b,
                               incoming[i].same_orientation});
    }
    if (result) result->seeds_before_filter += seeds.size();
    AlignmentTask task;
    task.rid_a = incoming[run].rid_a;
    task.rid_b = incoming[run].rid_b;
    task.seeds = filter_seeds(std::move(seeds), seed_filter);
    if (result) result->seeds_after_filter += task.seeds.size();
    tasks.push_back(std::move(task));
    run = end;
  }
  if (result) result->distinct_pairs = tasks.size();
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
  // ~batch_tasks tasks (overlapped: while the previous batch is in flight).
  // The incoming task order does not matter — consolidate_tasks sorts on
  // the full tuple.
  comm::Exchanger ex(comm, cfg.exchange);
  auto visit = [&res, &partition, &ex](const kmer::Kmer& /*km*/, u32 /*count*/,
                                       std::vector<dht::ReadOccurrence>& occs) {
    ++res.retained_kmers;
    // Deterministic pair formation independent of arrival order; `occs` is
    // the traversal's reusable scratch, sorted in place (no per-key copy).
    std::sort(occs.begin(), occs.end(),
              [](const dht::ReadOccurrence& x, const dht::ReadOccurrence& y) {
                return x.rid != y.rid ? x.rid < y.rid : x.pos < y.pos;
              });
    for (std::size_t i = 0; i + 1 < occs.size(); ++i) {
      for (std::size_t j = i + 1; j < occs.size(); ++j) {
        const auto& oa = occs[i];
        const auto& ob = occs[j];
        if (oa.rid == ob.rid) continue;  // a repeat within one read is not an overlap
        OverlapTaskWire task;
        task.rid_a = oa.rid;
        task.rid_b = ob.rid;
        task.pos_a = oa.pos;
        task.pos_b = ob.pos;
        task.same_orientation = oa.is_forward == ob.is_forward ? 1 : 0;
        u64 owner_rid = task_owner_read(oa.rid, ob.rid) == 0 ? oa.rid : ob.rid;
        ex.post(partition.owner_of(owner_rid), &task, 1);
        ++res.pair_tasks_formed;
      }
    }
  };

  std::vector<OverlapTaskWire> incoming;
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
        const u64 tasks = res.pair_tasks_formed - formed_before;
        const u64 posted = tasks * sizeof(OverlapTaskWire);
        k.units("keys", res.retained_kmers - keys_before, &core::KernelCosts::table_traverse)
            .arg("tasks", tasks)
            .units("bytes", posted, &core::KernelCosts::per_byte_copy)
            .working_set(table.memory_bytes() + posted);
        return slot_cursor < table.capacity();
      },
      [&](const comm::RecvBatch& batch) {
        // Tasks arrive already normalized (pair formation emits sorted
        // occurrence pairs); consolidate_tasks re-checks regardless. Only
        // the accumulation copy happens here.
        auto k = ctx.kernel("overlap:recv");
        std::size_t at = incoming.size();
        batch.append_to(incoming);
        const u64 bytes = (incoming.size() - at) * sizeof(OverlapTaskWire);
        k.units("bytes", bytes, &core::KernelCosts::per_byte_copy).working_set(bytes);
      });

  // --- consolidate per-pair seed lists, then apply the seed policy.
  auto consolidate = ctx.kernel("overlap:consolidate");
  consolidate.units("wire_tasks", incoming.size(), &core::KernelCosts::pair_consolidate)
      .working_set(incoming.size() * sizeof(OverlapTaskWire));
  std::vector<AlignmentTask> tasks =
      consolidate_tasks(std::move(incoming), cfg.seed_filter, &res);
  consolidate.close();

  if (result) *result = res;
  return tasks;
}

}  // namespace dibella::overlap
