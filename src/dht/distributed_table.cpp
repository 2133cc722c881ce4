#include "dht/distributed_table.hpp"

#include "bloom/distributed_bloom.hpp"  // kmer_owner: same routing as stage 1
#include "comm/exchanger.hpp"
#include "core/kernel_costs.hpp"
#include "kmer/occurrence_stream.hpp"

namespace dibella::dht {

HashTableStageResult run_hashtable_stage(core::StageContext& ctx,
                                         const io::ReadStore& reads,
                                         const HashTableStageConfig& cfg,
                                         LocalKmerTable& table) {
  auto& comm = ctx.comm;
  const auto& costs = core::KernelCosts::get();
  comm.set_stage("ht");
  const int P = comm.size();
  HashTableStageResult result;
  result.keys_before_purge = table.size();

  // As in stage 1, either schedule consumes each batch in source-rank order
  // over the same batch boundaries — identical insertion order, identical
  // table contents.
  kmer::OccurrenceStream stream(reads, cfg.k, cfg.sketch);
  comm::Exchanger ex(comm, cfg.exchange);
  std::vector<KmerInstance> scratch;
  result.batches = comm::run_exchange(
      ex,
      [&] {
        u64 parsed = 0;
        const u64 windows_before = stream.sketch_stats().windows_scanned;
        bool more =
            stream.fill(cfg.batch_instances, [&](u64 rid, const kmer::Occurrence& occ) {
              KmerInstance inst;
              inst.km = occ.kmer;
              inst.rid = rid;
              inst.pos = occ.pos;
              inst.is_forward = occ.is_forward ? 1 : 0;
              ex.post(bloom::kmer_owner(occ.kmer, P), &inst, 1);
              ++parsed;
            });
        result.parsed_instances += parsed;
        // As in stage 1: parse work scales with windows scanned, not with
        // the (sketched) subset that gets posted.
        const u64 scanned = stream.sketch_stats().windows_scanned - windows_before;
        ctx.trace.add_compute("ht:pack",
                              static_cast<double>(scanned) * costs.parse_per_kmer,
                              ex.pending_bytes());
        return more;
      },
      [&](const comm::RecvBatch& batch) {
        scratch.clear();
        batch.append_to(scratch);
        obs::Span span = ctx.span("ht:insert");
        span.arg("instances", scratch.size());
        for (const KmerInstance& inst : scratch) {
          ++result.received_instances;
          ReadOccurrence occ{inst.rid, inst.pos, inst.is_forward};
          if (table.add_occurrence(inst.km, occ)) ++result.inserted_occurrences;
        }
        ctx.trace.add_compute("ht:local",
                              static_cast<double>(scratch.size()) * costs.table_insert,
                              table.memory_bytes());
      });

  // Purge: false-positive singletons and high-frequency k-mers (> m). The
  // partitions are traversed independently in parallel — no communication.
  u64 keys_before = table.size();
  obs::Span purge_span = ctx.span("ht:purge");
  purge_span.arg("keys", keys_before);
  result.purged_keys = table.purge_outside(cfg.min_count, cfg.max_count);
  ctx.trace.add_compute("ht:local",
                        static_cast<double>(keys_before) * costs.table_traverse,
                        table.memory_bytes());
  result.retained_keys = table.size();
  return result;
}

}  // namespace dibella::dht
