#pragma once
/// \file pipeline.hpp
/// The diBELLA pipeline (§4): the four bulk-synchronous stages — distributed
/// Bloom filter, distributed hash table, overlap detection, read exchange +
/// x-drop alignment — orchestrated over a World of SPMD ranks, plus the
/// optional stage 5 (config.stage5): distributed string-graph construction,
/// transitive reduction, and unitig/GFA layout (src/sgraph/).
///
/// The pipeline produces (a) the alignment records, as sorted spill runs,
/// (b) aggregated stage counters, and (c) the raw per-rank traces + exchange
/// records that the netsim cost model replays to obtain platform-scaled
/// timings for the paper's figures.

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "align/alignment_stage.hpp"
#include "align/read_exchange.hpp"
#include "align/record_stream.hpp"
#include "bloom/distributed_bloom.hpp"
#include "comm/world.hpp"
#include "core/alignment_spill.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "dht/distributed_table.hpp"
#include "eval/report.hpp"
#include "io/read_store.hpp"
#include "io/truth.hpp"
#include "netsim/cost_model.hpp"
#include "obs/span.hpp"
#include "overlap/overlapper.hpp"
#include "sgraph/string_graph.hpp"

namespace dibella::core {

/// Globally aggregated stage counters (sums over ranks).
struct PipelineCounters {
  // stage 1
  u64 kmers_parsed = 0;          ///< k-mer instances routed in stage 1
  u64 candidate_keys = 0;        ///< non-singleton candidates (Bloom-approved)
  // minimizer sketch (src/sketch/; windows == kept when dense)
  u64 sketch_windows = 0;        ///< k-mer windows scanned by stage 1
  u64 sketch_seeds_kept = 0;     ///< sampled occurrences that entered the pipeline
  // stage 2
  u64 retained_kmers = 0;        ///< keys surviving the [min, m] purge
  u64 purged_keys = 0;
  // stage 3
  u64 overlap_tasks = 0;         ///< (pair, seed) tasks exchanged
  u64 read_pairs = 0;            ///< distinct overlapping pairs
  u64 seeds_after_filter = 0;
  // stage 4
  u64 reads_exchanged = 0;       ///< remote reads replicated
  u64 read_bytes_exchanged = 0;
  u64 pairs_aligned = 0;
  u64 alignments_computed = 0;   ///< seed extensions (Fig 7/13's unit)
  u64 dp_cells = 0;
  u64 alignments_reported = 0;
  u64 chain_anchors = 0;         ///< pairs extended from a colinear chain anchor
  u64 chain_dropped_seeds = 0;   ///< seeds subsumed by their pair's chain
  // stage 5 (string graph; all zero when stage5 is off)
  u64 sg_contained_reads = 0;    ///< reads dropped as contained
  u64 sg_internal_records = 0;   ///< records discarded as internal matches
  u64 sg_dovetail_edges = 0;     ///< graph edges before reduction
  u64 sg_edges_removed = 0;      ///< edges removed by transitive reduction
  u64 sg_edges_surviving = 0;
  u64 sg_unitigs = 0;
  u64 sg_components = 0;
  // memory / out-of-core telemetry (io::ReadStoreMemoryStats + spill)
  u64 peak_resident_read_bytes = 0;  ///< max over ranks of peak unpacked residency
  u64 packed_read_bytes = 0;     ///< always-resident 2-bit footprint (sum; 0 when blocks==1)
  u64 block_loads = 0;           ///< lazy block unpacks (sum over ranks)
  u64 block_evictions = 0;       ///< budget-driven evictions (sum over ranks)
  u64 spill_bytes = 0;           ///< alignment-record bytes spilled by stage 4 (all records)
  u64 spill_runs = 0;            ///< non-empty rounds spilled (sum over ranks)
  // self-healing exchange (comm::CommFaultStats; all zero fault-free)
  // Each counts Exchanger messages (one per peer per flush).
  u64 comm_chunk_retries = 0;        ///< replay retransmissions requested
  u64 comm_chunk_redeliveries = 0;   ///< duplicate message copies discarded
  u64 comm_corrupt_chunks = 0;       ///< messages failing CRC32/length checks
  // resolved parameters
  u64 ranks = 0;                 ///< world size
  u32 max_kmer_count = 0;        ///< the m actually used
};

/// Everything a pipeline run yields.
struct PipelineOutput {
  /// The alignment records: sorted external-sort runs, one per rank and
  /// block round (or, on a resume past alignment, each rank's adopted
  /// checkpoint payload). Always non-null. Owns the spill directory
  /// (removed when the last reference drops); read the records through
  /// alignment_source() or merged_alignments().
  std::shared_ptr<AlignmentSpillSet> spill;
  PipelineCounters counters;
  /// Stage-5 string graph products (surviving edges, unitigs, components),
  /// assembled from every rank's shard by finalize_string_graph; empty
  /// unless config.stage5.
  sgraph::StringGraphOutput string_graph;
  /// Per rank: compute segments and exchange records, in execution order.
  std::vector<netsim::RankTrace> traces;
  /// Checkpoint payload I/O over every rank and stage; set iff the run had
  /// a checkpoint_dir.
  std::optional<CheckpointSet::IoStats> checkpoint_io;
  /// Wallclock span trace (finalized); non-null iff config.collect_spans.
  std::shared_ptr<obs::Trace> span_trace;
  io::ReadPartition partition;
  /// Alignment tasks each rank owned — the paper's §9 point that the count
  /// balance is near perfect even when the time balance is not (Fig 8).
  std::vector<u64> per_rank_pairs_aligned;

  /// Ground-truth evaluation (config.eval): overlap recall/precision/F1 and
  /// stage-5 unitig fidelity. Valid only when eval_ran; deterministic in
  /// (reads, truth, config) like the alignments it is computed from.
  bool eval_ran = false;
  eval::EvalReport eval;

  /// counters.tsv: `#schema=2`, `counter\tvalue`, then one row per
  /// PipelineCounters field plus `sketch_density_ppm` and, iff checkpoint_io
  /// is set, the four `checkpoint_*` rows, sorted by name. No value
  /// depends on wallclock or scheduling, so the file is byte-stable run over
  /// run and byte-identical across comm schedules.
  void write_counters_tsv(std::ostream& os) const;

  /// The traces replayed on a platform, their work units priced at `costs`
  /// (per-stage and per-rank virtual seconds; the latter are Fig 8's
  /// load-imbalance input).
  netsim::TimingReport evaluate(const netsim::Platform& platform,
                                const netsim::Topology& topology,
                                const netsim::KernelCosts& costs) const;

  /// The merged (rid_a, rid_b)-ordered record stream: the k-way merge of
  /// `spill`'s runs. The PipelineOutput must outlive the returned source.
  std::unique_ptr<align::RecordSource> alignment_source() const;

  /// Materialize the merged stream (test/diagnostic convenience; defeats
  /// the out-of-core point for large runs).
  std::vector<align::AlignmentRecord> merged_alignments() const;
};

/// Run the full pipeline on `reads` (gid-ordered) over `world`.
/// Deterministic in (reads, config) and independent of world.size() in its
/// alignment output (the property the integration tests pin down).
///
/// `truth` (optional) is the read set's ground-truth provenance; it is
/// attached to every rank's ReadStore and — when config.eval — scored
/// against the merged alignments and stage-5 layout into `eval`.
/// config.eval without a truth table is an error.
PipelineOutput run_pipeline(comm::World& world, const std::vector<io::Read>& reads,
                            const PipelineConfig& config,
                            std::shared_ptr<const io::TruthTable> truth = nullptr);

}  // namespace dibella::core
