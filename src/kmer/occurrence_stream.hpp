#pragma once
/// \file occurrence_stream.hpp
/// Resumable, memory-bounded seed scan over a rank's reads, sketched on the
/// rank's worker pool and split by destination rank.
///
/// The pipeline makes two passes over the input (§4) and "executes in a
/// streaming fashion with a subset of input data at a time to limit the
/// memory consumption". This stream supports that: fill() posts the seeds
/// of whole reads until a budget of seeds has been posted and can be
/// resumed, pausing at read granularity (a single long read may overshoot
/// the budget by its own seed count, which is the same granularity the
/// paper's implementation batches at).
///
/// The stream walks a rank's owned reads through its ReadStore in gid order
/// (the out-of-core path: gid-order iteration loads each packed block
/// exactly once). Seeds are sketched ahead of posting, a bounded look-ahead
/// of reads at a time: the look-ahead is cut into chunks of at least
/// kChunkWindows k-mer windows, the rank's util::ChunkPool sketches the
/// chunks into per-worker buffers split by destination rank, and fill()
/// posts each chunk's per-destination slices in read order. So the posted
/// bytes per destination, the pause points (which depend only on the budget
/// and per-read seed counts) and the per-batch window counts are
/// bitwise-independent of the worker count and of the block count.

#include <algorithm>
#include <vector>

#include "io/read.hpp"
#include "io/read_store.hpp"
#include "kmer/parser.hpp"
#include "sketch/sketch.hpp"
#include "util/chunk_pool.hpp"

namespace dibella::kmer {

template <class Rec>
class OccurrenceStream {
 public:
  /// K-mer windows per sketched chunk (cut at read boundaries).
  static constexpr u64 kChunkWindows = u64{1} << 14;
  /// Chunks per worker in one look-ahead round with more than one worker:
  /// enough to amortize starting the round's threads and to balance reads
  /// of uneven length. One worker sketches one chunk at a time.
  static constexpr std::size_t kChunksPerWorker = 8;

  /// Seeds and k-mer windows of the reads one fill() posted, and the most
  /// threads that sketched any look-ahead round those reads came from (1
  /// when it posted none).
  struct Fill {
    u64 seeds = 0;
    u64 windows = 0;
    std::size_t workers = 1;
  };

  /// Scan the store's owned reads with `workers` threads; a block-mode
  /// store allows one (its lookups load and evict blocks).
  OccurrenceStream(const io::ReadStore& store, int k, const sketch::SketchConfig& sk,
                   int ranks, int workers)
      : store_(&store),
        first_gid_(store.first_local_gid()),
        count_(store.local_count()),
        ranks_(static_cast<std::size_t>(ranks)),
        k_(k),
        pool_(static_cast<std::size_t>(workers), k, sk, ranks) {
    DIBELLA_CHECK(workers >= 1, "OccurrenceStream: workers must be >= 1");
    DIBELLA_CHECK(workers == 1 || store.blocks() == 1,
                  "OccurrenceStream: a block-mode read store allows one worker");
  }

  // Chunks point into the pool's worker states.
  OccurrenceStream(const OccurrenceStream&) = delete;
  OccurrenceStream& operator=(const OccurrenceStream&) = delete;

  /// Post the seeds of whole reads, as `post(int dst, const Rec*, n)`
  /// slices, until at least `budget` seeds were posted in this call or the
  /// input is exhausted. Each seed becomes one record through
  /// `route(u64 rid, const Occurrence&, Rec&) -> int dst`, which workers
  /// call concurrently, so it must be a pure function; every call must pass
  /// the same one (fill() may post records sketched in an earlier call).
  template <class Route, class Post>
  Fill fill(u64 budget, const Route& route, Post&& post) {
    Fill f;
    while (next_read_ < count_ && f.seeds < budget) {
      if (chunk_ == chunks_.size()) sketch_ahead(route);
      f.workers = std::max(f.workers, round_threads_);
      const Chunk& ch = chunks_[chunk_];
      const Worker& w = *ch.worker;
      const std::size_t stride = ranks_ + 2;
      // Destination d's slice runs from the end of the worker's previous
      // read (the worker's buffers start empty each round) to the end of
      // the last read this batch takes.
      const u64* prev =
          ch.first_mark + read_in_chunk_ == 0
              ? nullptr
              : w.marks.data() + (ch.first_mark + read_in_chunk_ - 1) * stride;
      const u64* last = prev;
      for (; read_in_chunk_ < ch.reads && f.seeds < budget; ++read_in_chunk_) {
        last = w.marks.data() + (ch.first_mark + read_in_chunk_) * stride;
        f.windows += last[0];
        f.seeds += last[1];
        ++next_read_;
      }
      for (std::size_t d = 0; d < ranks_; ++d) {
        const u64 begin = prev ? prev[2 + d] : 0;
        post(static_cast<int>(d), w.out[d].data() + begin, last[2 + d] - begin);
      }
      if (read_in_chunk_ == ch.reads) {
        ++chunk_;
        read_in_chunk_ = 0;
      }
    }
    if (!more()) {
      // Everything is posted: give the look-ahead buffers back before the
      // stage consumes its last batches.
      for (Worker& w : pool_.states()) {
        for (auto& v : w.out) std::vector<Rec>().swap(v);
        std::vector<u64>().swap(w.marks);
      }
    }
    return f;
  }

  /// True while reads remain to be posted.
  bool more() const { return next_read_ < count_; }

 private:
  /// One worker's sketcher and output. `out[d]` holds the records for
  /// destination d of every read the worker sketched this round; `marks`
  /// holds, per such read, its windows, its seeds, and the end offset of
  /// its records in each out[d] (ranks + 2 values per read).
  struct alignas(64) Worker {
    Worker(int k, const sketch::SketchConfig& sk, int ranks)
        : sketcher(k, sk), out(static_cast<std::size_t>(ranks)) {}
    sketch::Sketcher sketcher;
    std::vector<std::vector<Rec>> out;
    std::vector<u64> marks;
  };

  /// Reads [first_read, first_read + reads) of the look-ahead, sketched by
  /// `worker` into its marks from `first_mark` on.
  struct Chunk {
    std::size_t first_read = 0;
    std::size_t reads = 0;
    Worker* worker = nullptr;
    std::size_t first_mark = 0;
  };

  /// Cut the next look-ahead round into chunks and sketch it on the pool.
  template <class Route>
  void sketch_ahead(const Route& route) {
    const std::size_t max_chunks =
        pool_.workers() == 1 ? 1 : pool_.workers() * kChunksPerWorker;
    chunks_.clear();
    std::size_t r = static_cast<std::size_t>(next_read_);
    while (r < count_ && chunks_.size() < max_chunks) {
      Chunk ch;
      ch.first_read = r;
      u64 windows = 0;
      while (r < count_ && windows < kChunkWindows) {
        windows += window_count(store_->local_length(first_gid_ + r), k_);
        ++r;
      }
      ch.reads = r - ch.first_read;
      chunks_.push_back(ch);
    }
    for (Worker& w : pool_.states()) {
      for (auto& v : w.out) v.clear();
      w.marks.clear();
    }
    round_threads_ = pool_.run(chunks_.size(), [&](Worker& w, std::size_t c) {
      Chunk& ch = chunks_[c];
      ch.worker = &w;
      ch.first_mark = w.marks.size() / (ranks_ + 2);
      for (std::size_t i = 0; i < ch.reads; ++i) {
        const io::Read& read = store_->local_read(first_gid_ + ch.first_read + i);
        const u64 windows_before = w.sketcher.stats().windows_scanned;
        const u64 seeds_before = w.sketcher.stats().seeds_kept;
        w.sketcher.for_each_seed(read.seq, [&](const Occurrence& occ) {
          Rec rec;
          const int d = route(read.gid, occ, rec);
          w.out[static_cast<std::size_t>(d)].push_back(rec);
        });
        w.marks.push_back(w.sketcher.stats().windows_scanned - windows_before);
        w.marks.push_back(w.sketcher.stats().seeds_kept - seeds_before);
        for (const auto& v : w.out) w.marks.push_back(v.size());
      }
    });
    chunk_ = 0;
    read_in_chunk_ = 0;
  }

  const io::ReadStore* store_;
  u64 first_gid_ = 0;
  u64 count_ = 0;
  std::size_t ranks_ = 1;
  int k_ = 0;
  u64 next_read_ = 0;  ///< first read not yet posted
  util::ChunkPool<Worker> pool_;
  std::vector<Chunk> chunks_;      ///< the current look-ahead round
  std::size_t round_threads_ = 1;  ///< threads that sketched chunks_
  std::size_t chunk_ = 0;          ///< first chunk with reads left to post
  std::size_t read_in_chunk_ = 0;
};

}  // namespace dibella::kmer
