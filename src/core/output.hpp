#pragma once
/// \file output.hpp
/// Result serialization: PAF-like records for aligned overlaps (the lingua
/// franca of long-read overlappers — minimap2, BELLA and DALIGNER wrappers
/// all speak a variant of it).

#include <ostream>
#include <string>
#include <vector>

#include "align/alignment_stage.hpp"
#include "align/record_stream.hpp"
#include "io/read.hpp"
#include "sgraph/edge_class.hpp"

namespace dibella::core {

/// Write alignments as PAF: qname qlen qstart qend strand tname tlen tstart
/// tend score alnlen mapq, plus two SAM-style tag columns for string-graph
/// cross-checking: `ol:i:` (the graph's overlap length — the longer aligned
/// span, the weight stage 5 ranks edges by) and `tp:A:` (the edge class at
/// `fuzz`: D dovetail, C contained, I internal, S self-overlap), so GFA L
/// lines can be verified against the PAF they were derived from. `reads`
/// must be gid-indexed (reads[gid].gid == gid).
void write_paf(std::ostream& os, const std::vector<align::AlignmentRecord>& alignments,
               const std::vector<io::Read>& reads, u32 fuzz = sgraph::kDefaultFuzz);

/// Streaming variant: drain a record source (the pipeline's spill k-way
/// merge) line by line, never holding the records resident. Byte-identical
/// to the vector overload over the same record sequence.
void write_paf(std::ostream& os, align::RecordSource& alignments,
               const std::vector<io::Read>& reads, u32 fuzz = sgraph::kDefaultFuzz);

/// One PAF line (for tests / spot checks).
std::string paf_line(const align::AlignmentRecord& rec, const io::Read& a,
                     const io::Read& b, u32 fuzz = sgraph::kDefaultFuzz);

}  // namespace dibella::core
