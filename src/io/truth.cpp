#include "io/truth.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "io/fastx.hpp"

namespace dibella::io {

namespace {

constexpr const char* kHeader = "gid\tgenome\tstart\tend\tstrand";

std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  while (true) {
    std::size_t tab = line.find('\t', begin);
    fields.push_back(line.substr(begin, tab - begin));
    if (tab == std::string_view::npos) break;
    begin = tab + 1;
  }
  return fields;
}

u64 parse_u64(std::string_view field, const char* what, std::size_t line_no) {
  std::string s(field);
  // Digits only: strtoull alone would accept "-1" (wrapping to 2^64-1),
  // leading whitespace, and '+', all of which are malformed here.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    throw Error("truth TSV line " + std::to_string(line_no) + ": bad " + what +
                " '" + s + "'");
  }
  errno = 0;
  char* end = nullptr;
  u64 v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    throw Error("truth TSV line " + std::to_string(line_no) + ": bad " + what +
                " '" + s + "'");
  }
  return v;
}

/// A genome id sizes the genome-length table, so it is bounded before use:
/// below 2^32 (TruthEntry::genome_id is a u32) and below the input's byte
/// count (a real table numbers its genomes 0..G-1, and G lines take more
/// than G bytes), so a single row cannot allocate beyond the input's size.
u32 parse_genome_id(std::string_view field, std::size_t line_no, std::size_t input_bytes) {
  const u64 id = parse_u64(field, "genome id", line_no);
  if (id > std::numeric_limits<u32>::max() || id >= input_bytes) {
    throw Error("truth TSV line " + std::to_string(line_no) + ": genome id " +
                std::to_string(id) + " out of range (must be below 2^32 and below the " +
                std::to_string(input_bytes) + "-byte input size)");
  }
  return static_cast<u32>(id);
}

}  // namespace

void TruthTable::add(TruthEntry entry) {
  DIBELLA_CHECK(entry.lo <= entry.hi, "TruthTable: interval lo > hi");
  entries_.push_back(entry);
}

void TruthTable::set_genome_length(u32 genome_id, u64 length) {
  if (genome_lengths_.size() <= genome_id) {
    genome_lengths_.resize(static_cast<std::size_t>(genome_id) + 1, 0);
  }
  auto& slot = genome_lengths_[genome_id];
  slot = std::max(slot, length);
}

const TruthEntry& TruthTable::entry(u64 gid) const {
  DIBELLA_CHECK(gid < size(), "TruthTable: gid out of range");
  return entries_[static_cast<std::size_t>(gid)];
}

u64 TruthTable::genome_length(u32 genome_id) const {
  DIBELLA_CHECK(genome_id < genome_count(), "TruthTable: genome_id out of range");
  return genome_lengths_[genome_id];
}

std::string TruthTable::to_tsv() const {
  std::ostringstream os;
  for (u32 g = 0; g < genome_count(); ++g) {
    os << "#genome\t" << g << '\t' << genome_lengths_[g] << '\n';
  }
  os << kHeader << '\n';
  for (std::size_t gid = 0; gid < entries_.size(); ++gid) {
    const auto& e = entries_[gid];
    os << gid << '\t' << e.genome_id << '\t' << e.lo << '\t' << e.hi << '\t'
       << (e.rc ? '-' : '+') << '\n';
  }
  return os.str();
}

TruthTable TruthTable::parse_tsv(std::string_view data) {
  TruthTable table;
  std::vector<bool> declared;  // genome ids with an explicit #genome line
  bool saw_header = false;
  std::size_t line_no = 0;
  std::size_t begin = 0;
  while (begin < data.size()) {
    std::size_t eol = data.find('\n', begin);
    std::string_view line = data.substr(begin, eol - begin);
    begin = eol == std::string_view::npos ? data.size() : eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;

    auto fields = split_tabs(line);
    if (fields[0] == "#genome") {
      if (fields.size() != 3) {
        throw Error("truth TSV line " + std::to_string(line_no) +
                    ": #genome wants 'id<TAB>length'");
      }
      const u32 id = parse_genome_id(fields[1], line_no, data.size());
      table.set_genome_length(id, parse_u64(fields[2], "genome length", line_no));
      if (declared.size() <= id) declared.resize(static_cast<std::size_t>(id) + 1);
      declared[id] = true;
      continue;
    }
    if (!saw_header) {
      if (line != kHeader) {
        throw Error("truth TSV line " + std::to_string(line_no) +
                    ": expected header '" + std::string(kHeader) + "'");
      }
      saw_header = true;
      continue;
    }
    if (fields.size() != 5) {
      throw Error("truth TSV line " + std::to_string(line_no) +
                  ": expected 5 tab-separated fields");
    }
    u64 gid = parse_u64(fields[0], "gid", line_no);
    if (gid != table.size()) {
      throw Error("truth TSV line " + std::to_string(line_no) + ": gid " +
                  std::to_string(gid) + " out of order (expected " +
                  std::to_string(table.size()) + ")");
    }
    TruthEntry e;
    e.genome_id = parse_genome_id(fields[1], line_no, data.size());
    e.lo = parse_u64(fields[2], "start", line_no);
    e.hi = parse_u64(fields[3], "end", line_no);
    if (e.lo > e.hi) {
      throw Error("truth TSV line " + std::to_string(line_no) + ": start > end");
    }
    if (fields[4] == "+") {
      e.rc = false;
    } else if (fields[4] == "-") {
      e.rc = true;
    } else {
      throw Error("truth TSV line " + std::to_string(line_no) +
                  ": strand must be '+' or '-'");
    }
    table.entries_.push_back(e);
  }
  if (!saw_header) throw Error("truth TSV: missing header line");
  // Genome lengths are optional in the file; fall back to interval extents
  // so a hand-made truth file still evaluates. An *explicitly declared*
  // length an interval overshoots is an inconsistency, not a fallback case.
  for (const auto& e : table.entries_) {
    bool is_declared = e.genome_id < declared.size() && declared[e.genome_id];
    if (is_declared && e.hi > table.genome_lengths_[e.genome_id]) {
      throw Error("truth TSV: interval end " + std::to_string(e.hi) +
                  " exceeds the declared length " +
                  std::to_string(table.genome_lengths_[e.genome_id]) +
                  " of genome " + std::to_string(e.genome_id));
    }
    if (!is_declared) table.set_genome_length(e.genome_id, e.hi);
  }
  return table;
}

TruthTable TruthTable::load_tsv(const std::string& path) {
  return parse_tsv(load_file(path));
}

void TruthTable::save_tsv(const std::string& path) const {
  save_file(path, to_tsv());
}

}  // namespace dibella::io
