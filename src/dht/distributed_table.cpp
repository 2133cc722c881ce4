#include "dht/distributed_table.hpp"

#include "bloom/distributed_bloom.hpp"  // kmer_owner: same routing as stage 1
#include "comm/exchanger.hpp"
#include "kmer/occurrence_stream.hpp"

namespace dibella::dht {

HashTableStageResult run_hashtable_stage(core::StageContext& ctx,
                                         const io::ReadStore& reads,
                                         const HashTableStageConfig& cfg,
                                         LocalKmerTable& table) {
  auto& comm = ctx.comm;
  comm.set_stage("ht");
  const int P = comm.size();
  HashTableStageResult result;
  result.keys_before_purge = table.size();

  // As in stage 1, either schedule consumes each batch in source-rank order
  // over the same batch boundaries — identical insertion order, identical
  // table contents.
  kmer::OccurrenceStream<KmerInstance> stream(reads, cfg.k, cfg.sketch, P, cfg.workers);
  const auto route = [P](u64 rid, const kmer::Occurrence& occ, KmerInstance& inst) {
    inst.km = occ.kmer;
    inst.rid = rid;
    inst.pos = occ.pos;
    inst.is_forward = occ.is_forward ? 1 : 0;
    return bloom::kmer_owner(occ.kmer, P);
  };
  comm::Exchanger ex(comm, cfg.exchange);
  result.batches = comm::run_exchange(
      ex,
      [&] {
        auto k = ctx.kernel("ht:pack");
        const auto filled = stream.fill(
            cfg.batch_instances, route,
            [&](int dst, const KmerInstance* insts, std::size_t n) { ex.post(dst, insts, n); });
        result.parsed_instances += filled.seeds;
        // As in stage 1: parse work scales with windows scanned, not with
        // the (sketched) subset that gets posted.
        k.units("windows", filled.windows, netsim::Kernel::kParse)
            .arg("workers", filled.workers)
            .working_set(ex.pending_bytes());
        return stream.more();
      },
      [&](const comm::RecvBatch& batch) {
        auto k = ctx.kernel("ht:insert", "ht:local");
        const u64 instances = batch.for_each_item<KmerInstance>([&](const KmerInstance& inst) {
          ReadOccurrence occ{inst.rid, inst.pos, inst.is_forward};
          if (table.add_occurrence(inst.km, occ)) ++result.inserted_occurrences;
        });
        result.received_instances += instances;
        k.units("instances", instances, netsim::Kernel::kTableInsert)
            .working_set(table.memory_bytes());
      });

  // Purge: false-positive singletons and high-frequency k-mers (> m). The
  // partitions are traversed independently in parallel — no communication.
  auto purge = ctx.kernel("ht:purge", "ht:local");
  purge.units("keys", table.size(), netsim::Kernel::kTableTraverse);
  result.purged_keys = table.purge_outside(cfg.min_count, cfg.max_count);
  purge.working_set(table.memory_bytes()).close();
  result.retained_keys = table.size();
  return result;
}

}  // namespace dibella::dht
