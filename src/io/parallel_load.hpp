#pragma once
/// \file parallel_load.hpp
/// Parallel FASTQ ingestion over the SPMD world — the paper's "input reads
/// are distributed roughly uniformly over the processors using parallel
/// I/O" (§6). Each rank parses only its byte slice of the file (with
/// record-boundary synchronization), then the ranks cooperatively assemble
/// the gid-ordered global read list: each rank sends its serialized records
/// to every rank in one comm::Exchanger batch, and the receivers concatenate
/// them in source-rank order.

#include <string_view>
#include <vector>

#include "core/stage_context.hpp"
#include "io/read.hpp"

namespace dibella::io {

/// Parse `fastq_data` cooperatively: this rank parses the byte range
/// [bounds[rank], bounds[rank+1]) and the collective assembles the full
/// gid-ordered read vector on every rank. Collective; deterministic; the
/// result equals a serial parse_fastq of the same data.
std::vector<Read> load_fastq_parallel(core::StageContext& ctx,
                                      std::string_view fastq_data);

}  // namespace dibella::io
