#pragma once
/// \file occurrence_stream.hpp
/// Resumable, memory-bounded k-mer scan over a rank's reads.
///
/// The pipeline makes two passes over the input (§4) and "executes in a
/// streaming fashion with a subset of input data at a time to limit the
/// memory consumption". This stream supports that: fill() emits up to a
/// budget of k-mer occurrences and can be resumed, pausing at read
/// granularity (a single long read may overshoot the budget by its own
/// k-mer count, which is the same granularity the paper's implementation
/// batches at).
///
/// The stream walks a rank's owned reads through its ReadStore in gid order
/// (the out-of-core path: gid-order iteration loads each packed block
/// exactly once, and the pause points depend only on the budget and
/// per-read k-mer counts, so the emission sequence and batch boundaries are
/// bitwise-independent of the block count).

#include "io/read.hpp"
#include "io/read_store.hpp"
#include "kmer/parser.hpp"
#include "sketch/sketch.hpp"

namespace dibella::kmer {

class OccurrenceStream {
 public:
  /// Iterate a rank's owned reads through the store (block-mode safe).
  OccurrenceStream(const io::ReadStore& store, int k,
                   const sketch::SketchConfig& sk = {})
      : store_(&store),
        first_gid_(store.first_local_gid()),
        count_(static_cast<std::size_t>(store.local_count())),
        sketcher_(k, sk) {}

  /// Emit occurrences of whole reads until at least `budget` occurrences
  /// have been produced in this call (or input is exhausted). With a sketch
  /// config the emission is the read's minimizer (or syncmer) sample — a
  /// pure per-read selection, so pause points still depend only on the
  /// budget and per-read seed counts and the stream keeps its bitwise
  /// block-count independence.
  /// fn(u64 rid, const Occurrence&). Returns true while input remains.
  template <class Fn>
  bool fill(u64 budget, Fn&& fn) {
    u64 produced = 0;
    while (next_read_ < count_ && produced < budget) {
      const io::Read& r = store_->local_read(first_gid_ + next_read_);
      sketcher_.for_each_seed(r.seq, [&](const Occurrence& occ) {
        fn(r.gid, occ);
        ++produced;
      });
      ++next_read_;
    }
    return next_read_ < count_;
  }

  /// Windows scanned / seeds kept so far (cumulative across fill calls).
  const sketch::SketchStats& sketch_stats() const { return sketcher_.stats(); }

 private:
  const io::ReadStore* store_;
  u64 first_gid_ = 0;
  std::size_t count_ = 0;
  std::size_t next_read_ = 0;
  sketch::Sketcher sketcher_;
};

}  // namespace dibella::kmer
