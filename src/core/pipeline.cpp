#include "core/pipeline.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "bella/model.hpp"
#include "comm/exchanger.hpp"
#include "core/checkpoint.hpp"
#include "core/stage_context.hpp"
#include "io/read_block.hpp"
#include "obs/profile.hpp"
#include "util/cpus.hpp"
#include "util/radix_sort.hpp"

namespace dibella::core {

u32 PipelineConfig::resolved_max_kmer_count() const {
  if (max_kmer_count != 0) return max_kmer_count;
  return bella::reliable_max_frequency(assumed_coverage, assumed_error_rate, k);
}

netsim::TimingReport PipelineOutput::evaluate(const netsim::Platform& platform,
                                              const netsim::Topology& topology,
                                              const netsim::KernelCosts& costs) const {
  return netsim::CostModel(platform, topology).evaluate(traces, costs);
}

void PipelineOutput::write_counters_tsv(std::ostream& os) const {
  const PipelineCounters& c = counters;
  std::vector<std::pair<std::string_view, u64>> rows = {
      {"kmers_parsed", c.kmers_parsed},
      {"candidate_keys", c.candidate_keys},
      {"sketch_windows", c.sketch_windows},
      {"sketch_seeds_kept", c.sketch_seeds_kept},
      // Achieved sampling density in parts-per-million (kept / windows);
      // 10^6 when dense, ~2/(w+1) * 10^6 under minimizers. Integer so the
      // TSV stays locale-proof and byte-comparable.
      {"sketch_density_ppm",
       c.sketch_windows == 0 ? 0 : c.sketch_seeds_kept * 1'000'000 / c.sketch_windows},
      {"retained_kmers", c.retained_kmers},
      {"purged_keys", c.purged_keys},
      {"overlap_tasks", c.overlap_tasks},
      {"read_pairs", c.read_pairs},
      {"seeds_after_filter", c.seeds_after_filter},
      {"reads_exchanged", c.reads_exchanged},
      {"read_bytes_exchanged", c.read_bytes_exchanged},
      {"pairs_aligned", c.pairs_aligned},
      {"alignments_computed", c.alignments_computed},
      {"dp_cells", c.dp_cells},
      {"alignments_reported", c.alignments_reported},
      {"chain_anchors", c.chain_anchors},
      {"chain_dropped_seeds", c.chain_dropped_seeds},
      {"sg_contained_reads", c.sg_contained_reads},
      {"sg_internal_records", c.sg_internal_records},
      {"sg_dovetail_edges", c.sg_dovetail_edges},
      {"sg_edges_removed", c.sg_edges_removed},
      {"sg_edges_surviving", c.sg_edges_surviving},
      {"sg_unitigs", c.sg_unitigs},
      {"sg_components", c.sg_components},
      {"peak_resident_read_bytes", c.peak_resident_read_bytes},
      {"packed_read_bytes", c.packed_read_bytes},
      {"block_loads", c.block_loads},
      {"block_evictions", c.block_evictions},
      {"spill_bytes", c.spill_bytes},
      {"spill_runs", c.spill_runs},
      {"comm_chunk_retries", c.comm_chunk_retries},
      {"comm_chunk_redeliveries", c.comm_chunk_redeliveries},
      {"comm_corrupt_chunks", c.comm_corrupt_chunks},
      {"ranks", c.ranks},
      {"max_kmer_count", c.max_kmer_count},
  };
  if (checkpoint_io) {
    rows.insert(rows.end(), {{"checkpoint_payloads_written", checkpoint_io->payloads_written},
                             {"checkpoint_bytes_written", checkpoint_io->bytes_written},
                             {"checkpoint_payloads_read", checkpoint_io->payloads_read},
                             {"checkpoint_bytes_read", checkpoint_io->bytes_read}});
  }
  std::sort(rows.begin(), rows.end());
  os << obs::tsv_schema_header() << "\ncounter\tvalue\n";
  for (const auto& [name, value] : rows) os << name << '\t' << value << '\n';
}

std::unique_ptr<align::RecordSource> PipelineOutput::alignment_source() const {
  return std::make_unique<SpillMergeSource>(spill->all_runs());
}

std::vector<align::AlignmentRecord> PipelineOutput::merged_alignments() const {
  std::vector<align::AlignmentRecord> merged;
  auto source = alignment_source();
  align::AlignmentRecord rec;
  while (source->next(rec)) merged.push_back(rec);
  return merged;
}

namespace {

/// Sort one round's records into the global output order. Keys are the
/// (rid_a, rid_b) pair, unique across the whole run (each pair has one task
/// owner), so the chained radix passes give one total order.
void sort_records(std::vector<align::AlignmentRecord>& records) {
  util::radix_sort_u64(records,
                       [](const align::AlignmentRecord& r) { return r.rid_b; });
  util::radix_sort_u64(records,
                       [](const align::AlignmentRecord& r) { return r.rid_a; });
}

// --- checkpoint payloads: each stage's state in the records that stage
// ships, restored through its own receive path. A restored table's slot
// layout may differ from the original's; stage 3 sorts its tasks, so the
// outputs do not.

template <class T>
std::vector<u8> payload_bytes(const std::vector<T>& records) {
  const auto* p = reinterpret_cast<const u8*>(records.data());
  return {p, p + records.size() * sizeof(T)};
}

/// Stage 1: the candidate keys as a flat kmer::Kmer array.
std::vector<u8> bloom_payload(const dht::LocalKmerTable& table) {
  std::vector<kmer::Kmer> keys;
  keys.reserve(table.size());
  table.for_each(
      [&](const kmer::Kmer& key, u32, std::vector<dht::ReadOccurrence>&) { keys.push_back(key); });
  return payload_bytes(keys);
}

/// Stage 2: one dht::KmerInstance per stored occurrence, in traversal
/// order. Stage 1 admits only keys the same sketch rescans in stage 2, and
/// the purge keeps count <= m below the occurrence cap m + 1, so every count
/// equals its stored occurrences and replaying them rebuilds the table.
std::vector<u8> ht_payload(const dht::LocalKmerTable& table) {
  std::vector<dht::KmerInstance> records;
  table.for_each(
      [&](const kmer::Kmer& key, u32 count, std::vector<dht::ReadOccurrence>& occs) {
        DIBELLA_CHECK(count >= 1 && count == occs.size(),
                      "checkpoint: a retained key's count differs from its stored occurrences");
        for (const dht::ReadOccurrence& occ : occs) {
          dht::KmerInstance& inst = records.emplace_back();
          inst.km = key;
          inst.rid = occ.rid;
          inst.pos = occ.pos;
          inst.is_forward = occ.is_forward;
        }
      });
  return payload_bytes(records);
}

/// Stage 3: the owned tasks as pair runs. filter_seeds maps its own output
/// to itself, so consolidating them again gives back the same tasks.
std::vector<u8> overlap_payload(const std::vector<overlap::AlignmentTask>& tasks) {
  std::vector<overlap::OverlapTask> seeds;
  for (const overlap::AlignmentTask& t : tasks) {
    for (const overlap::SeedPair& s : t.seeds) {
      seeds.push_back(
          {overlap::PairKeys::key(t.rid_a, t.rid_b, s.same_orientation), s.pos_a, s.pos_b});
    }
  }
  std::vector<u8> bytes;
  util::RadixScratch<overlap::OverlapTask> scratch;
  overlap::encode_pair_runs(seeds, bytes, scratch);
  return bytes;
}

}  // namespace

PipelineOutput run_pipeline(comm::World& world, const std::vector<io::Read>& reads,
                            const PipelineConfig& config,
                            std::shared_ptr<const io::TruthTable> truth) {
  const int P = world.size();
  const u32 max_count = config.resolved_max_kmer_count();
  const u32 B = config.blocks;
  DIBELLA_CHECK(B >= 1, "config.blocks must be >= 1");
  DIBELLA_CHECK(!config.eval || truth != nullptr,
                "config.eval requires a ground-truth table (see io/truth.hpp)");
  DIBELLA_CHECK(truth == nullptr || truth->size() == reads.size(),
                "truth table and read set disagree on read count");

  std::vector<u64> lens;
  lens.reserve(reads.size());
  for (const auto& r : reads) lens.push_back(r.seq.size());
  io::ReadPartition partition(lens, P);

  // Checkpoint/restart setup. A fresh run with a checkpoint dir writes the
  // manifest header now; a --resume run validates the fingerprint and learns
  // which stages it may skip.
  DIBELLA_CHECK(!config.resume || !config.checkpoint_dir.empty(),
                "config.resume requires config.checkpoint_dir");
  DIBELLA_CHECK(config.degraded_ranks.empty() || config.resume,
                "config.degraded_ranks requires config.resume");
  for (int r : config.degraded_ranks) {
    DIBELLA_CHECK(r >= 0 && r < P, "degraded rank out of range");
  }
  std::shared_ptr<CheckpointSet> ckpt;
  CheckpointStage resume_from = CheckpointStage::kNone;
  if (!config.checkpoint_dir.empty()) {
    const u32 fp = checkpoint_fingerprint(reads, config, P);
    if (config.resume) {
      ckpt = CheckpointSet::open(config.checkpoint_dir, fp, P);
      resume_from = ckpt->last_complete();
    } else {
      ckpt = CheckpointSet::start(config.checkpoint_dir, fp, P);
    }
  }

  // Observability: one wallclock span lane per rank when tracing is on.
  std::shared_ptr<obs::Trace> span_trace;
  if (config.collect_spans) span_trace = std::make_shared<obs::Trace>(P);

  // Per-rank result slots (each rank writes only its own index).
  std::vector<netsim::RankTrace> traces(static_cast<std::size_t>(P));
  std::vector<bloom::BloomStageResult> bloom_res(static_cast<std::size_t>(P));
  std::vector<dht::HashTableStageResult> ht_res(static_cast<std::size_t>(P));
  std::vector<overlap::OverlapStageResult> ov_res(static_cast<std::size_t>(P));
  std::vector<align::ReadExchangeResult> rx_res(static_cast<std::size_t>(P));
  std::vector<align::AlignmentStageResult> al_res(static_cast<std::size_t>(P));
  std::vector<sgraph::StringGraphStageResult> sg_res(static_cast<std::size_t>(P));
  std::vector<sgraph::StringGraphShard> sg_out(static_cast<std::size_t>(P));
  std::vector<io::ReadStoreMemoryStats> mem_res(static_cast<std::size_t>(P));

  // Stage 4 spills each round's sorted records instead of keeping them
  // resident; ranks (threads) append runs concurrently. A resume past the
  // alignment stage adopts the checkpointed runs instead.
  auto spill = std::make_shared<AlignmentSpillSet>(config.spill_dir);

  // Stages 1, 2 and 4 run on every CPU a rank owns. With B > 1 the store's
  // read lookups update its shared LRU state, so packed stores keep one
  // worker.
  const int workers = B > 1 ? 1 : std::max(1, util::available_cpus() / P);

  // Every stage's exchanges run on one schedule.
  const comm::Exchanger::Config exchange{config.overlap_comm};

  world.run([&](comm::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    StageContext ctx{comm, traces[rank], span_trace.get()};
    ctx.attach();

    io::BlockConfig block_cfg;
    block_cfg.blocks = B;
    block_cfg.memory_budget_bytes = config.memory_budget_bytes;
    io::ReadStore store(reads, partition, comm.rank(), block_cfg);
    if (truth) store.attach_truth(truth);

    // Graceful degradation: a degraded rank restores nothing from the
    // checkpoint — its shard's state is dropped and it rejoins empty.
    const bool degraded_me =
        std::find(config.degraded_ranks.begin(), config.degraded_ranks.end(),
                  comm.rank()) != config.degraded_ranks.end();

    // Persist a completed stage: every rank writes its payload, then runs
    // one empty exchange round. Each rank flushes only after its payload is
    // written, so rank 0's wait() returns only once every payload is
    // durable, and rank 0 alone then appends the manifest line. Any abort
    // past the round therefore sees the stage as complete, and any abort
    // before it sees the stage as absent — never half a set.
    const auto checkpoint_stage = [&](CheckpointStage stage, auto&& write_payload) {
      if (!ckpt) return;
      {
        obs::Span io_span = ctx.span("checkpoint:write");
        write_payload();
      }
      comm::Exchanger ex(comm);
      ex.flush_async(/*done=*/true);
      ex.wait();
      if (comm.rank() == 0) ckpt->mark_complete(stage);
    };

    // Restore this rank's payload for `stage`; a decode error names the file.
    const auto restore_stage = [&](CheckpointStage stage, auto&& decode) {
      obs::Span io_span = ctx.span("checkpoint:read");
      const std::vector<u8> bytes = ckpt->read_payload(stage, comm.rank());
      try {
        decode(bytes);
      } catch (const Error& e) {
        throw Error(ckpt->payload_path(stage, comm.rank()) + ": " + e.what());
      }
    };

    // Stage 1: distributed Bloom filter; initializes candidate keys.
    dht::LocalKmerTable table(1024, max_count + 1);
    if (resume_from < CheckpointStage::kBloom) {
      bloom::BloomStageConfig bcfg;
      bcfg.k = config.k;
      bcfg.batch_kmers = config.batch_kmers;
      bcfg.bloom_fpr = config.bloom_fpr;
      bcfg.assumed_error_rate = config.assumed_error_rate;
      bcfg.sketch = sketch::SketchConfig{config.minimizer_w, config.syncmer};
      bcfg.exchange = exchange;
      bcfg.workers = workers;
      {
        StageSpan stage_span = ctx.stage_span("stage:bloom");
        bloom_res[rank] = bloom::run_bloom_stage(ctx, store, bcfg, table);
      }
      checkpoint_stage(CheckpointStage::kBloom, [&] {
        ckpt->write_payload(CheckpointStage::kBloom, comm.rank(), bloom_payload(table));
      });
    } else if (resume_from == CheckpointStage::kBloom && !degraded_me) {
      restore_stage(CheckpointStage::kBloom, [&](const std::vector<u8>& bytes) {
        comm::ByteReader in(bytes);
        while (!in.empty()) table.insert_key(in.read<kmer::Kmer>());
      });
    }

    // Stage 2: distributed hash table with occurrence metadata + purge.
    if (resume_from < CheckpointStage::kHashTable) {
      dht::HashTableStageConfig hcfg;
      hcfg.k = config.k;
      hcfg.batch_instances = config.batch_kmers;
      hcfg.min_count = config.min_kmer_count;
      hcfg.max_count = max_count;
      hcfg.sketch = sketch::SketchConfig{config.minimizer_w, config.syncmer};
      hcfg.exchange = exchange;
      hcfg.workers = workers;
      {
        StageSpan stage_span = ctx.stage_span("stage:ht");
        ht_res[rank] = dht::run_hashtable_stage(ctx, store, hcfg, table);
      }
      checkpoint_stage(CheckpointStage::kHashTable, [&] {
        ckpt->write_payload(CheckpointStage::kHashTable, comm.rank(), ht_payload(table));
      });
    } else if (resume_from == CheckpointStage::kHashTable && !degraded_me) {
      restore_stage(CheckpointStage::kHashTable, [&](const std::vector<u8>& bytes) {
        comm::ByteReader in(bytes);
        while (!in.empty()) {
          const auto inst = in.read<dht::KmerInstance>();
          DIBELLA_CHECK(inst.rid < partition.total_reads(), "checkpoint: read id out of range");
          table.insert_key(inst.km);
          table.add_occurrence(inst.km, {inst.rid, inst.pos, inst.is_forward});
        }
      });
    }

    // Stage 3: overlap detection (Algorithm 1) + task exchange.
    std::vector<overlap::AlignmentTask> tasks;
    if (resume_from < CheckpointStage::kOverlap) {
      overlap::OverlapStageConfig ocfg;
      ocfg.seed_filter = config.seed_filter;
      ocfg.exchange = exchange;
      ocfg.batch_tasks = config.batch_overlap_tasks;
      {
        StageSpan stage_span = ctx.stage_span("stage:overlap");
        tasks = overlap::run_overlap_stage(ctx, table, partition, ocfg, &ov_res[rank]);
      }
      checkpoint_stage(CheckpointStage::kOverlap, [&] {
        ckpt->write_payload(CheckpointStage::kOverlap, comm.rank(), overlap_payload(tasks));
      });
    } else if (resume_from == CheckpointStage::kOverlap && !degraded_me) {
      restore_stage(CheckpointStage::kOverlap, [&](const std::vector<u8>& bytes) {
        overlap::PairSeedTable runs;
        runs.add_runs(bytes.data(), bytes.size());
        tasks = runs.consolidate(config.seed_filter);
        for (const overlap::AlignmentTask& t : tasks) {
          DIBELLA_CHECK(t.rid_b < partition.total_reads(), "checkpoint: read id out of range");
        }
      });
    }

    // Stage 4a+4b: read exchange then embarrassingly parallel x-drop
    // alignment, one round per block. Every task joins the round of its
    // *remote* read's block (both-local tasks follow rid_b's block). All
    // tasks needing a given remote gid therefore land in one round, so each
    // remote read is fetched exactly once, and every rank's server side only
    // unpacks its own round block — the exchange totals do not depend on B.
    // Every rank runs exactly B rounds (the exchange is collective); B == 1
    // is one round over the consolidated task order. Each round's records
    // are sorted and spilled as one run.
    if (resume_from < CheckpointStage::kAlignment) {
      align::ReadExchangeConfig rcfg;
      rcfg.exchange = exchange;
      align::AlignmentStageConfig acfg;
      acfg.scoring = config.scoring;
      acfg.xdrop = config.xdrop;
      acfg.k = config.k;
      acfg.min_score = config.min_report_score;
      acfg.chain = config.chain;
      acfg.workers = workers;
      {
        StageSpan stage_span = ctx.stage_span("stage:align");
        std::vector<std::vector<overlap::AlignmentTask>> rounds(B);
        for (auto& t : tasks) {
          const u64 round_gid = !store.is_local(t.rid_a) ? t.rid_a : t.rid_b;
          rounds[io::block_of(partition, B, round_gid)].push_back(std::move(t));
        }
        tasks.clear();
        tasks.shrink_to_fit();
        for (u32 r = 0; r < B; ++r) {
          obs::Span round_span = ctx.span("round");
          round_span.arg("block", r);
          round_span.arg("tasks", rounds[r].size());
          rx_res[rank] += align::run_read_exchange(ctx, store, rounds[r], rcfg);
          align::AlignmentStageResult al;
          auto round_records = align::run_alignment_stage(ctx, store, rounds[r], acfg, &al);
          al_res[rank] += al;
          sort_records(round_records);
          {
            obs::Span spill_span = ctx.span("spill:write");
            const u64 spilled = spill->add_run(comm.rank(), round_records);
            spill_span.arg("bytes", spilled);
          }
          store.clear_remote_cache();
          rounds[r].clear();
          rounds[r].shrink_to_fit();
        }
      }
      // The stage-4 checkpoint is the merge of this rank's runs, streamed in
      // the framed spill-run format. Keys are globally unique, so a resumed
      // run that adopts it merges into the same global sequence.
      checkpoint_stage(CheckpointStage::kAlignment, [&] {
        SpillMergeSource merged(spill->rank_runs(comm.rank()));
        write_alignment_run(ckpt->payload_path(CheckpointStage::kAlignment, comm.rank()),
                            merged);
      });
    } else if (!degraded_me) {
      // Resume past alignment: this rank's checkpoint payload becomes its
      // one run, read in place.
      obs::Span io_span = ctx.span("checkpoint:read");
      al_res[rank].records_kept = spill->adopt_run(
          comm.rank(), ckpt->payload_path(CheckpointStage::kAlignment, comm.rank()));
    }

    // Stage 5 (optional): distributed string graph — classification, edge
    // partition, ghost-edge transitive reduction, unitig/GFA layout, fed by
    // the merge of this rank's runs; the graph is invariant to the record
    // regrouping (see run_string_graph_stage).
    if (config.stage5) {
      sgraph::StringGraphConfig scfg;
      scfg.min_overlap_score = config.min_overlap_score;
      scfg.fuzz = config.sgraph_fuzz;
      scfg.exchange = exchange;
      StageSpan stage_span = ctx.stage_span("stage:sgraph");
      SpillMergeSource local_stream(spill->rank_runs(comm.rank()));
      sg_out[rank] = sgraph::run_string_graph_stage(ctx, store, local_stream, scfg,
                                                    &sg_res[rank]);
    }
    mem_res[rank] = store.memory_stats();
  });

  // --- merge per-rank outputs. The records' merge is the spill k-way merge,
  // streamed on demand via alignment_source().
  PipelineOutput out;
  out.partition = partition;
  out.traces = std::move(traces);
  out.spill = spill;
  if (span_trace) {
    span_trace->finalize();  // an unclosed span would corrupt later pairing
    out.span_trace = span_trace;
  }

  auto& c = out.counters;
  c.ranks = static_cast<u64>(P);
  c.max_kmer_count = max_count;
  out.per_rank_pairs_aligned.resize(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    out.per_rank_pairs_aligned[rank] = al_res[rank].pairs_aligned;
    c.kmers_parsed += bloom_res[rank].parsed_instances;
    c.candidate_keys += bloom_res[rank].candidate_keys;
    c.sketch_windows += bloom_res[rank].windows_scanned;
    c.sketch_seeds_kept += bloom_res[rank].parsed_instances;
    c.retained_kmers += ht_res[rank].retained_keys;
    c.purged_keys += ht_res[rank].purged_keys;
    c.overlap_tasks += ov_res[rank].pair_tasks_formed;
    c.read_pairs += ov_res[rank].distinct_pairs;
    c.seeds_after_filter += ov_res[rank].seeds_after_filter;
    c.reads_exchanged += rx_res[rank].reads_requested;
    c.read_bytes_exchanged += rx_res[rank].bytes_received;
    c.pairs_aligned += al_res[rank].pairs_aligned;
    c.alignments_computed += al_res[rank].alignments_computed;
    c.dp_cells += al_res[rank].dp_cells;
    c.alignments_reported += al_res[rank].records_kept;
    c.chain_anchors += al_res[rank].chain_anchors;
    c.chain_dropped_seeds += al_res[rank].chain_dropped_seeds;
    // Stage-5 ownership rules (records where produced, contained reads by
    // owner, edges by the owner of lo) make these plain sums.
    c.sg_contained_reads += sg_res[rank].contained_reads;
    c.sg_internal_records += sg_res[rank].internal_records;
    c.sg_dovetail_edges += sg_res[rank].edges_owned;
    c.sg_edges_removed += sg_res[rank].edges_removed;
    c.sg_edges_surviving += sg_res[rank].edges_surviving;
    // Memory telemetry: peak residency is a per-rank high-water (max), the
    // packed footprint and load/evict activity are capacity sums.
    c.peak_resident_read_bytes =
        std::max(c.peak_resident_read_bytes, mem_res[rank].peak_resident_bytes);
    c.packed_read_bytes += mem_res[rank].packed_bytes;
    c.block_loads += mem_res[rank].block_loads;
    c.block_evictions += mem_res[rank].block_evictions;
  }
  c.spill_bytes = spill->spill_bytes();
  c.spill_runs = spill->run_count();
  const comm::CommFaultStats fault_stats = world.comm_fault_stats();
  c.comm_chunk_retries = fault_stats.retries;
  c.comm_chunk_redeliveries = fault_stats.redeliveries;
  c.comm_corrupt_chunks = fault_stats.corrupt_chunks;
  if (config.stage5) {
    // No rank-0 funnel anymore: every rank kept its owned surviving edges
    // and walk fragment; assembling them here is a merge-thread concat +
    // stitch, not a collective.
    out.string_graph = sgraph::finalize_string_graph(std::move(sg_out));
    c.sg_unitigs = out.string_graph.layout.unitigs.size();
    c.sg_components = out.string_graph.layout.components.size();
  }

  if (ckpt) out.checkpoint_io = ckpt->io_stats();

  // Ground-truth evaluation over the merged (rank-independent) outputs, so
  // the report is as schedule- and rank-count-invariant as the PAF itself.
  if (config.eval) {
    eval::EvalConfig ecfg;
    ecfg.min_true_overlap = config.eval_min_overlap;
    auto source = out.alignment_source();
    out.eval = eval::evaluate(*truth, *source,
                              config.stage5 ? &out.string_graph.layout : nullptr,
                              ecfg);
    out.eval.degraded_ranks = static_cast<u32>(config.degraded_ranks.size());
    out.eval_ran = true;
  }
  return out;
}

}  // namespace dibella::core
