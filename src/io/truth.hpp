#pragma once
/// \file truth.hpp
/// Ground-truth provenance of a read set: for every gid, the genome it was
/// sampled from, its true genome interval, and its strand.
///
/// The paper evaluates diBELLA the way BELLA does — recall/precision against
/// a known truth set (Ellis et al., ICPP 2019) — and the follow-on string
/// graph work scores unitigs against the reference the same way. Our
/// simulator knows every read's true placement; this table is how that
/// provenance survives past read generation instead of being discarded: it
/// rides io::ReadStore through the pipeline, serializes as a sidecar TSV
/// next to the reads (`reads.truth.tsv`), and feeds src/eval/'s
/// recall/precision and unitig-fidelity scoring.
///
/// Sidecar TSV format (tab-separated, one read per row, gid order):
///
///   #genome <id> <length>          — one per genome, before the header
///   gid genome start end strand    — the column header
///   0   0      132   5132  +
///
/// `strand` is '+' (forward) or '-' (the read was sampled reverse-
/// complemented). Genome-length lines are optional on load; when absent the
/// lengths are inferred as each genome's maximum interval end.

#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace dibella::io {

/// True placement of one read.
struct TruthEntry {
  u32 genome_id = 0;  ///< which reference the read was sampled from
  u64 lo = 0;         ///< genome offset of the template's first base
  u64 hi = 0;         ///< one past the template's last base
  bool rc = false;    ///< sampled from the reverse strand

  u64 length() const { return hi - lo; }
  bool operator==(const TruthEntry&) const = default;
};

/// Per-read ground truth for a gid-ordered read set, plus the lengths of the
/// genomes the reads were sampled from.
class TruthTable {
 public:
  TruthTable() = default;

  void reserve(u64 n) { entries_.reserve(static_cast<std::size_t>(n)); }

  /// Append the entry for the next gid (entries are gid-ordered).
  void add(TruthEntry entry);

  /// Record (or grow to) the length of `genome_id`.
  void set_genome_length(u32 genome_id, u64 length);

  u64 size() const { return static_cast<u64>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  const TruthEntry& entry(u64 gid) const;
  const std::vector<TruthEntry>& entries() const { return entries_; }

  u32 genome_count() const { return static_cast<u32>(genome_lengths_.size()); }
  u64 genome_length(u32 genome_id) const;
  const std::vector<u64>& genome_lengths() const { return genome_lengths_; }

  bool operator==(const TruthTable&) const = default;

  /// Serialize as the sidecar TSV (see file comment).
  std::string to_tsv() const;

  /// Parse a sidecar TSV. Throws dibella::Error on malformed input, which
  /// includes a genome id at or above 2^32 or the input's byte count; infers
  /// genome lengths from interval ends when no #genome lines are present.
  static TruthTable parse_tsv(std::string_view data);

  /// File round-trip helpers (load_file/save_file underneath).
  static TruthTable load_tsv(const std::string& path);
  void save_tsv(const std::string& path) const;

 private:
  std::vector<TruthEntry> entries_;
  std::vector<u64> genome_lengths_;
};

}  // namespace dibella::io
