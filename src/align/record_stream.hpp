#pragma once
/// \file record_stream.hpp
/// Pull-based streams of alignment records. Stage 5, the eval oracle, and
/// the PAF writer consume records through this interface. In the pipeline
/// the source is always the k-way merge of stage 4's sorted spill runs
/// (core::SpillMergeSource, at any --blocks), so the records are never
/// resident at once; a resident vector is the test and tool seam.

#include <vector>

#include "align/alignment_stage.hpp"

namespace dibella::align {

/// A forward-only stream of AlignmentRecords in (rid_a, rid_b) order.
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  /// Fill `out` with the next record; false when the stream is exhausted.
  virtual bool next(AlignmentRecord& out) = 0;
};

/// Stream over a resident vector (the test and tool seam).
class VectorRecordSource final : public RecordSource {
 public:
  explicit VectorRecordSource(const std::vector<AlignmentRecord>& records)
      : records_(&records) {}

  bool next(AlignmentRecord& out) override {
    if (index_ >= records_->size()) return false;
    out = (*records_)[index_++];
    return true;
  }

 private:
  const std::vector<AlignmentRecord>* records_;
  std::size_t index_ = 0;
};

}  // namespace dibella::align
