#include "align/alignment_stage.hpp"

#include <algorithm>

#include "align/chain.hpp"
#include "align/xdrop.hpp"
#include "kmer/dna.hpp"
#include "kmer/kmer.hpp"
#include "util/chunk_pool.hpp"

namespace dibella::align {

namespace {

/// Tasks per claimed chunk: small enough that a run of slow pairs cannot
/// leave one worker finishing alone, large enough that claiming is free.
/// Output never depends on it (records are concatenated in chunk order).
constexpr std::size_t kChunkTasks = 32;

/// Everything one worker writes, so workers share no mutable state (and,
/// cache-line aligned, no line of it either). The Workspace (x-drop bands
/// and sequence copies, the reverse-complement buffer) is reused across every
/// task and seed the worker aligns, so its steady-state loop performs zero
/// heap allocations per seed.
struct alignas(64) WorkerState {
  Workspace ws;
  AlignmentStageResult res;
  u64 touched_bytes = 0;
  u64 revcomp_bytes = 0;
};

/// Align one task and append its best alignment to `out` when it clears
/// cfg.min_score.
void align_task(const overlap::AlignmentTask& task, const io::ReadStore& store,
                const AlignmentStageConfig& cfg, const ChainParams& chain_params,
                WorkerState& w, std::vector<AlignmentRecord>& out) {
  const std::string& a = store.get(task.rid_a).seq;
  const std::string& b = store.get(task.rid_b).seq;
  w.touched_bytes += a.size() + b.size();
  ++w.res.pairs_aligned;

  // ws.b_rc holds the reverse complement of *this* task's b once a
  // reverse-orientation seed appears; the flag (not the buffer) tracks
  // per-task laziness so the buffer's capacity carries across tasks.
  bool have_rc = false;

  AlignmentRecord best;
  best.rid_a = task.rid_a;
  best.rid_b = task.rid_b;
  bool have_best = false;

  // Chaining collapses the pair's seed list to the best chain's
  // representative anchor — one extension per pair. When no seed is
  // chainable (all corrupt) the per-seed loop below runs and skips them
  // the same way it always has.
  overlap::SeedPair chain_anchor;
  const overlap::SeedPair* seeds = task.seeds.data();
  std::size_t n_seeds = task.seeds.size();
  if (cfg.chain && n_seeds > 1) {
    ChainResult chain = chain_seeds(task.seeds, a.size(), b.size(), chain_params,
                                    &w.res.chain_dropped_seeds);
    if (chain.found) {
      chain_anchor = chain.anchor;
      seeds = &chain_anchor;
      n_seeds = 1;
      ++w.res.chain_anchors;
    }
  }

  for (std::size_t si = 0; si < n_seeds; ++si) {
    const overlap::SeedPair& seed = seeds[si];
    const int k = cfg.k;
    u64 pos_a = seed.pos_a;
    u64 pos_b;
    std::string_view bseq;
    if (seed.same_orientation) {
      bseq = b;
      pos_b = seed.pos_b;
    } else {
      if (!have_rc) {
        kmer::reverse_complement_into(b, w.ws.b_rc);
        have_rc = true;
        w.revcomp_bytes += b.size();
      }
      bseq = w.ws.b_rc;
      // A window at pos p in b's forward frame starts at len-k-p in the RC.
      pos_b = b.size() - static_cast<u64>(k) - seed.pos_b;
    }
    // Defensive: skip a corrupt seed. Checked in b's forward frame, because
    // an RC-frame position past the end of b wraps around below zero.
    if (pos_a + static_cast<u64>(k) > a.size() ||
        seed.pos_b + static_cast<u64>(k) > b.size()) {
      continue;
    }
    SeedAlignment sa =
        align_from_seed(a, bseq, pos_a, pos_b, k, cfg.scoring, cfg.xdrop, w.ws);
    ++w.res.alignments_computed;
    w.res.dp_cells += sa.cells;

    if (!have_best || sa.score > best.score) {
      have_best = true;
      best.score = sa.score;
      best.same_orientation = seed.same_orientation;
      best.a_begin = static_cast<u32>(sa.a_begin);
      best.a_end = static_cast<u32>(sa.a_end);
      if (seed.same_orientation) {
        best.b_begin = static_cast<u32>(sa.b_begin);
        best.b_end = static_cast<u32>(sa.b_end);
      } else {
        // Convert RC-frame span back to b's forward frame.
        best.b_begin = static_cast<u32>(b.size() - sa.b_end);
        best.b_end = static_cast<u32>(b.size() - sa.b_begin);
      }
    }
  }
  best.seeds_explored = static_cast<u32>(n_seeds);
  if (have_best && best.score >= cfg.min_score) {
    out.push_back(best);
    ++w.res.records_kept;
  }
}

}  // namespace

std::vector<AlignmentRecord> run_alignment_stage(
    core::StageContext& ctx, const io::ReadStore& store,
    const std::vector<overlap::AlignmentTask>& tasks, const AlignmentStageConfig& cfg,
    AlignmentStageResult* result) {
  DIBELLA_CHECK(cfg.workers >= 1, "alignment stage: workers must be >= 1");
  DIBELLA_CHECK(cfg.workers == 1 || store.blocks() == 1,
                "alignment stage: a block-mode read store allows one worker");
  ctx.comm.set_stage("align");

  ChainParams chain_params;
  chain_params.k = cfg.k;

  auto extend = ctx.kernel("align:extend", "align:compute");

  // Workers write only their own WorkerState and the chunks they claimed;
  // ctx and its spans stay on this (the rank's) thread.
  const std::size_t n_chunks = (tasks.size() + kChunkTasks - 1) / kChunkTasks;
  std::vector<std::vector<AlignmentRecord>> chunk_records(n_chunks);
  util::ChunkPool<WorkerState> pool(static_cast<std::size_t>(cfg.workers));
  const std::size_t workers = pool.run(n_chunks, [&](WorkerState& w, std::size_t c) {
    const std::size_t end = std::min(tasks.size(), (c + 1) * kChunkTasks);
    for (std::size_t t = c * kChunkTasks; t < end; ++t) {
      align_task(tasks[t], store, cfg, chain_params, w, chunk_records[c]);
    }
  });

  AlignmentStageResult res;
  u64 touched_bytes = 0;
  u64 revcomp_bytes = 0;
  u64 restarts = 0;
  for (const WorkerState& w : pool.states()) {
    res += w.res;
    touched_bytes += w.touched_bytes;
    revcomp_bytes += w.revcomp_bytes;
    restarts += w.ws.xdrop_restarts;
  }
  std::vector<AlignmentRecord> records = util::concat_chunks(chunk_records);

  // DP cells dominate; reverse-complement construction and read access are
  // byte-copy-bounded. Exact per-rank unit counts (summed over workers, so
  // independent of their number) preserve the data-dependent load imbalance
  // the paper studies.
  extend.arg("pairs", res.pairs_aligned)
      .units("cells", res.dp_cells, netsim::Kernel::kXdropCell)
      .units("bytes", revcomp_bytes + touched_bytes, netsim::Kernel::kByteCopy)
      .arg("lanes", static_cast<u64>(xdrop_kernel_lanes(cfg.scoring, cfg.xdrop)))
      .arg("restarts", restarts)
      .arg("workers", workers)
      .working_set(touched_bytes);

  if (result) *result = res;
  return records;
}

}  // namespace dibella::align
