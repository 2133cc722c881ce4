#pragma once
/// \file fastx.hpp
/// FASTQ and FASTA parsing / writing.
///
/// The readers work off an in-memory buffer; `load_file` slurps a path.

#include <string>
#include <string_view>
#include <vector>

#include "io/read.hpp"

namespace dibella::io {

/// Read an entire file into memory. Throws dibella::Error on failure.
std::string load_file(const std::string& path);

/// Write `data` to `path` (truncating). Throws on failure.
void save_file(const std::string& path, std::string_view data);

/// Parse all FASTQ records in `data` (4-line records). gids are assigned
/// 0..N-1 in order. Tolerates trailing blank lines; throws on malformed
/// records.
std::vector<Read> parse_fastq(std::string_view data);

/// Parse all FASTA records (multi-line sequences allowed).
std::vector<Read> parse_fasta(std::string_view data);

/// Serialize reads as FASTQ (emits '~'-quality lines when qual is empty).
std::string to_fastq(const std::vector<Read>& reads);

/// Serialize reads as FASTA (single-line sequences).
std::string to_fasta(const std::vector<Read>& reads);

/// Find the byte offset of the first FASTQ record that starts at or after
/// `from` in `data`. A record start is a line beginning with '@' whose
/// third line begins with '+' — this disambiguates '@' appearing as a
/// quality character. Returns data.size() when none found.
std::size_t sync_to_fastq_record(std::string_view data, std::size_t from);

}  // namespace dibella::io
