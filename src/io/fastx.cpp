#include "io/fastx.hpp"

#include <fstream>
#include <sstream>

#include "util/common.hpp"

namespace dibella::io {

namespace {

/// Return the line starting at `pos` (without trailing newline) and advance
/// `pos` past it. Returns false at end of data.
bool next_line(std::string_view data, std::size_t& pos, std::string_view& line) {
  if (pos >= data.size()) return false;
  std::size_t nl = data.find('\n', pos);
  if (nl == std::string_view::npos) {
    line = data.substr(pos);
    pos = data.size();
  } else {
    line = data.substr(pos, nl - pos);
    pos = nl + 1;
  }
  // Tolerate CRLF input.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return true;
}

}  // namespace

std::string load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DIBELLA_CHECK(in.good(), "cannot open file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void save_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DIBELLA_CHECK(out.good(), "cannot open file for writing: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  DIBELLA_CHECK(out.good(), "short write to file: " + path);
}

std::vector<Read> parse_fastq(std::string_view data) {
  // Strict whole-file parse: malformed leading data is an error rather than
  // silently skipped by record synchronization.
  std::size_t pos = sync_to_fastq_record(data, 0);
  if (!data.empty()) {
    std::size_t first = data.find_first_not_of("\r\n");
    DIBELLA_CHECK(first != std::string_view::npos ? data[first] == '@' : true,
                  "malformed FASTQ: file does not start with '@'");
    DIBELLA_CHECK(pos == (first == std::string_view::npos ? data.size() : first),
                  "malformed FASTQ: no valid record at file start");
  }
  std::vector<Read> reads;
  while (pos < data.size()) {
    std::string_view header, seq, plus, qual;
    std::size_t scan = pos;
    if (!next_line(data, scan, header)) break;
    if (header.empty()) {  // tolerate blank lines between records
      pos = scan;
      continue;
    }
    DIBELLA_CHECK(header[0] == '@', "malformed FASTQ: expected '@' header");
    DIBELLA_CHECK(next_line(data, scan, seq), "malformed FASTQ: missing sequence");
    DIBELLA_CHECK(next_line(data, scan, plus) && !plus.empty() && plus[0] == '+',
                  "malformed FASTQ: missing '+' separator");
    DIBELLA_CHECK(next_line(data, scan, qual), "malformed FASTQ: missing quality");
    DIBELLA_CHECK(qual.size() == seq.size(), "malformed FASTQ: quality length mismatch");
    Read r;
    r.gid = reads.size();
    r.name = std::string(header.substr(1));
    r.seq = std::string(seq);
    r.qual = std::string(qual);
    reads.push_back(std::move(r));
    pos = scan;
  }
  return reads;
}

std::vector<Read> parse_fasta(std::string_view data) {
  std::vector<Read> reads;
  std::size_t pos = 0;
  std::string_view line;
  Read current;
  bool in_record = false;
  auto flush = [&]() {
    if (in_record) {
      current.gid = reads.size();
      reads.push_back(std::move(current));
      current = Read{};
    }
  };
  while (next_line(data, pos, line)) {
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      in_record = true;
      current.name = std::string(line.substr(1));
    } else {
      DIBELLA_CHECK(in_record, "FASTA sequence data before any '>' header");
      current.seq.append(line);
    }
  }
  flush();
  return reads;
}

std::string to_fastq(const std::vector<Read>& reads) {
  std::string out;
  for (const auto& r : reads) {
    out += '@';
    out += r.name;
    out += '\n';
    out += r.seq;
    out += "\n+\n";
    if (r.qual.size() == r.seq.size()) {
      out += r.qual;
    } else {
      out.append(r.seq.size(), '~');
    }
    out += '\n';
  }
  return out;
}

std::string to_fasta(const std::vector<Read>& reads) {
  std::string out;
  for (const auto& r : reads) {
    out += '>';
    out += r.name;
    out += '\n';
    out += r.seq;
    out += '\n';
  }
  return out;
}

std::size_t sync_to_fastq_record(std::string_view data, std::size_t from) {
  std::size_t pos = from;
  // Move to the start of a line.
  if (pos > 0 && pos <= data.size() && data[pos - 1] != '\n') {
    std::size_t nl = data.find('\n', pos);
    if (nl == std::string_view::npos) return data.size();
    pos = nl + 1;
  }
  while (pos < data.size()) {
    if (data[pos] == '@') {
      // Candidate header. Verify the line after the next one starts with '+'
      // (FASTQ's separator), which a quality line starting with '@' cannot
      // satisfy at the same offset pattern.
      std::size_t p = pos;
      std::string_view l1, l2, l3;
      std::size_t scan = p;
      if (next_line(data, scan, l1) && next_line(data, scan, l2) &&
          next_line(data, scan, l3) && !l3.empty() && l3[0] == '+') {
        return pos;
      }
    }
    std::size_t nl = data.find('\n', pos);
    if (nl == std::string_view::npos) return data.size();
    pos = nl + 1;
  }
  return data.size();
}

}  // namespace dibella::io
