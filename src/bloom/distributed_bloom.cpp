#include "bloom/distributed_bloom.hpp"

#include "bloom/bloom_filter.hpp"
#include "comm/exchanger.hpp"
#include "kmer/occurrence_stream.hpp"

namespace dibella::bloom {

namespace {
constexpr u64 kBloomSalt1 = 0xB100F117;
constexpr u64 kBloomSalt2 = 0xB100F22E;
}  // namespace

BloomStageResult run_bloom_stage(core::StageContext& ctx, const io::ReadStore& reads,
                                 const BloomStageConfig& cfg,
                                 dht::LocalKmerTable& table) {
  auto& comm = ctx.comm;
  comm.set_stage("bloom");
  const int P = comm.size();
  BloomStageResult result;

  // --- the a-priori Eq. 2 + singleton-ratio cardinality estimate (§6) sizes
  // this rank's Bloom partition. Uniform hashing gives each rank ~1/P of the
  // distinct set. The partition replicates every read's length on every
  // rank, so the global window count needs no collective.
  const io::ReadPartition& partition = reads.partition();
  u64 total_windows = 0;
  for (u64 g = 0; g < partition.total_reads(); ++g) {
    total_windows += kmer::window_count(partition.length(g), cfg.k);
  }
  u64 est_distinct =
      estimate_distinct_kmers(total_windows, cfg.assumed_error_rate, cfg.k);
  if (cfg.sketch.enabled()) {
    // Sketching inserts only the sampled subset; scale the filter by the
    // scheme's expected density (an overestimate for the distinct count,
    // which errs toward a lower false-positive rate).
    est_distinct = static_cast<u64>(static_cast<double>(est_distinct) *
                                    sketch::expected_density(cfg.sketch)) +
                   64;
  }
  u64 est_local = est_distinct / static_cast<u64>(P) + 64;
  BloomFilter filter(est_local, cfg.bloom_fpr);
  result.bloom_bits = filter.bit_count();

  // --- memory-bounded streaming pass: pack -> exchange -> local insert.
  // Under either schedule each batch is consumed in source-rank order over
  // the same batch boundaries, so insertions happen in the same global order
  // and the resulting filter/table are bitwise-identical.
  kmer::OccurrenceStream<kmer::Kmer> stream(reads, cfg.k, cfg.sketch, P, cfg.workers);
  const auto route = [P](u64 /*rid*/, const kmer::Occurrence& occ, kmer::Kmer& key) {
    key = occ.kmer;
    return kmer_owner(occ.kmer, P);
  };
  comm::Exchanger ex(comm, cfg.exchange);
  result.batches = comm::run_exchange(
      ex,
      [&] {
        auto k = ctx.kernel("bloom:pack");
        const auto filled = stream.fill(
            cfg.batch_kmers, route,
            [&](int dst, const kmer::Kmer* keys, std::size_t n) { ex.post(dst, keys, n); });
        result.parsed_instances += filled.seeds;
        result.windows_scanned += filled.windows;
        // Parse work is per window scanned, not per seed kept — sketching
        // still rolls every k-mer, it just posts fewer of them.
        k.units("windows", filled.windows, netsim::Kernel::kParse)
            .arg("workers", filled.workers)
            .working_set(ex.pending_bytes());
        return stream.more();
      },
      [&](const comm::RecvBatch& batch) {
        auto k = ctx.kernel("bloom:insert", "bloom:local");
        u64 hits = 0;
        const u64 kmers = batch.for_each_item<kmer::Kmer>([&](const kmer::Kmer& km) {
          if (filter.test_and_insert(km.hash(kBloomSalt1), km.hash(kBloomSalt2))) {
            table.insert_key(km);
            ++hits;
          }
        });
        result.received_instances += kmers;
        k.units("kmers", kmers, netsim::Kernel::kBloomInsert)
            .units("hits", hits, netsim::Kernel::kTableInsert)
            .working_set(filter.memory_bytes() + table.memory_bytes());
      });

  result.candidate_keys = table.size();
  result.bloom_set_bits = filter.popcount();
  // The Bloom filter is freed here (scope exit) once the table holds the
  // candidate keys — matching §6: "After the hash table is initialized with
  // k-mer keys, the Bloom filter is freed."
  return result;
}

}  // namespace dibella::bloom
