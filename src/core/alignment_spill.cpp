#include "core/alignment_spill.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "util/checksum.hpp"
#include "util/common.hpp"

namespace dibella::core {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kRecordSize = sizeof(align::AlignmentRecord);
const char kSpillDirPrefix[] = "dibella-spill-";

/// Unique run-directory name within this machine: pid disambiguates
/// processes, the sequence number disambiguates pipeline runs in-process.
std::string next_spill_dir_name() {
  static std::atomic<u64> seq{0};
  return kSpillDirPrefix + std::to_string(::getpid()) + "-" +
         std::to_string(seq.fetch_add(1));
}

void write_run_header(std::ofstream& out, u64 payload_bytes) {
  const u32 magic = kSpillRunMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&payload_bytes), sizeof(payload_bytes));
}

}  // namespace

u64 write_alignment_run(const std::string& path,
                        const std::vector<align::AlignmentRecord>& sorted) {
  const u64 bytes = static_cast<u64>(sorted.size()) * kRecordSize;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DIBELLA_CHECK(out.good(), "write_alignment_run: cannot open " + path);
  write_run_header(out, bytes);
  out.write(reinterpret_cast<const char*>(sorted.data()),
            static_cast<std::streamsize>(bytes));
  const u32 crc = util::crc32(sorted.data(), static_cast<std::size_t>(bytes));
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  DIBELLA_CHECK(out.good(), "write_alignment_run: short write to " + path);
  return bytes;
}

u64 write_alignment_run(const std::string& path, align::RecordSource& source) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DIBELLA_CHECK(out.good(), "write_alignment_run: cannot open " + path);
  write_run_header(out, 0);  // payload length patched below
  u64 bytes = 0;
  u32 crc = 0;
  align::AlignmentRecord rec;
  while (source.next(rec)) {
    out.write(reinterpret_cast<const char*>(&rec),
              static_cast<std::streamsize>(kRecordSize));
    crc = util::crc32(&rec, kRecordSize, crc);
    bytes += kRecordSize;
  }
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.seekp(sizeof(u32), std::ios::beg);
  out.write(reinterpret_cast<const char*>(&bytes), sizeof(bytes));
  DIBELLA_CHECK(out.good(), "write_alignment_run: short write to " + path);
  return bytes;
}

std::size_t reclaim_orphan_spill_dirs(const std::string& parent_dir) {
  std::size_t reclaimed = 0;
  std::error_code ec;
  fs::directory_iterator it(parent_dir, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSpillDirPrefix, 0) != 0) continue;
    // Parse the <pid> of dibella-spill-<pid>-<seq>.
    const std::string tail = name.substr(sizeof(kSpillDirPrefix) - 1);
    char* end = nullptr;
    errno = 0;
    const long pid = std::strtol(tail.c_str(), &end, 10);
    if (errno != 0 || end == tail.c_str() || *end != '-' || pid <= 0) continue;
    if (pid == static_cast<long>(::getpid())) continue;
    // Signal 0 probes existence without signalling; ESRCH = no such process,
    // so the directory's owner is dead and its spill runs are orphaned.
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    std::error_code rm_ec;
    fs::remove_all(entry.path(), rm_ec);
    if (!rm_ec) ++reclaimed;
  }
  return reclaimed;
}

AlignmentSpillSet::AlignmentSpillSet(const std::string& dir_hint) {
  fs::path base = dir_hint.empty() ? fs::temp_directory_path() : fs::path(dir_hint);
  reclaim_orphan_spill_dirs(base.string());
  fs::path dir = base / next_spill_dir_name();
  std::error_code ec;
  fs::create_directories(dir, ec);
  DIBELLA_CHECK(!ec, "AlignmentSpillSet: cannot create spill directory " + dir.string());
  dir_ = dir.string();
}

AlignmentSpillSet::~AlignmentSpillSet() {
  std::error_code ec;
  fs::remove_all(dir_, ec);  // best effort; nothing to do about failure here
}

u64 AlignmentSpillSet::add_run(int rank,
                               const std::vector<align::AlignmentRecord>& sorted) {
  if (sorted.empty()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (next_run_index_.size() <= static_cast<std::size_t>(rank)) {
    next_run_index_.resize(static_cast<std::size_t>(rank) + 1, 0);
  }
  const u32 index = next_run_index_[static_cast<std::size_t>(rank)]++;
  fs::path path = fs::path(dir_) / ("align.r" + std::to_string(rank) + "." +
                                    std::to_string(index) + ".bin");
  const u64 bytes = write_alignment_run(path.string(), sorted);
  runs_.push_back({rank, path.string()});
  bytes_ += bytes;
  ++spilled_runs_;
  return bytes;
}

u64 AlignmentSpillSet::adopt_run(int rank, const std::string& path) {
  SpillMergeSource source({path});
  u64 records = 0;
  align::AlignmentRecord rec;
  while (source.next(rec)) ++records;
  std::lock_guard<std::mutex> lock(mu_);
  runs_.push_back({rank, path});
  return records;
}

std::vector<std::string> AlignmentSpillSet::rank_runs(int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> paths;
  for (const RunInfo& r : runs_) {
    if (r.rank == rank) paths.push_back(r.path);
  }
  return paths;
}

std::vector<std::string> AlignmentSpillSet::all_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> paths;
  paths.reserve(runs_.size());
  // (rank, spill order): runs_ holds append order across rank threads, so
  // group by rank for a deterministic merge-input order.
  int max_rank = -1;
  for (const RunInfo& r : runs_) max_rank = r.rank > max_rank ? r.rank : max_rank;
  for (int rank = 0; rank <= max_rank; ++rank) {
    for (const RunInfo& r : runs_) {
      if (r.rank == rank) paths.push_back(r.path);
    }
  }
  return paths;
}

u64 AlignmentSpillSet::spill_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

u64 AlignmentSpillSet::run_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spilled_runs_;
}

bool SpillMergeSource::Run::refill(std::size_t buffer_records) {
  if (eof) return false;
  if (remaining_bytes == 0) {
    // Payload fully streamed: the trailing CRC32 must match what we read.
    u32 stored = 0;
    in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    DIBELLA_CHECK(in.gcount() == static_cast<std::streamsize>(sizeof(stored)),
                  "SpillMergeSource: missing CRC32 trailer in " + path);
    DIBELLA_CHECK(stored == crc,
                  "SpillMergeSource: CRC32 mismatch in " + path +
                      " (spill run corrupted on disk)");
    DIBELLA_CHECK(in.peek() == std::ifstream::traits_type::eof(),
                  "SpillMergeSource: trailing bytes after the CRC32 trailer in " +
                      path);
    eof = true;
    return false;
  }
  const u64 want = std::min<u64>(remaining_bytes,
                                 static_cast<u64>(buffer_records) * kRecordSize);
  buffer.resize(static_cast<std::size_t>(want) / kRecordSize);
  in.read(reinterpret_cast<char*>(buffer.data()), static_cast<std::streamsize>(want));
  const auto got_bytes = static_cast<std::size_t>(in.gcount());
  DIBELLA_CHECK(got_bytes == want,
                "SpillMergeSource: truncated spill run " + path + " (wanted " +
                    std::to_string(want) + " payload bytes, got " +
                    std::to_string(got_bytes) + ")");
  crc = util::crc32(buffer.data(), got_bytes, crc);
  remaining_bytes -= want;
  pos = 0;
  return true;
}

SpillMergeSource::SpillMergeSource(const std::vector<std::string>& run_paths,
                                   std::size_t buffer_records)
    : buffer_records_(buffer_records ? buffer_records : 1) {
  runs_.reserve(run_paths.size());
  for (const std::string& path : run_paths) {
    auto run = std::make_unique<Run>();
    run->path = path;
    run->in.open(path, std::ios::binary);
    DIBELLA_CHECK(run->in.good(), "SpillMergeSource: cannot open " + path);
    u32 magic = 0;
    u64 payload = 0;
    run->in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    run->in.read(reinterpret_cast<char*>(&payload), sizeof(payload));
    DIBELLA_CHECK(run->in.good() && magic == kSpillRunMagic,
                  "SpillMergeSource: " + path +
                      " is not a spill run (bad magic word)");
    DIBELLA_CHECK(payload % kRecordSize == 0,
                  "SpillMergeSource: " + path +
                      " payload length is not a multiple of the record size");
    run->remaining_bytes = payload;
    if (run->refill(buffer_records_)) runs_.push_back(std::move(run));
  }
}

bool SpillMergeSource::next(align::AlignmentRecord& out) {
  // Linear scan over the run heads: the fan-in is ranks * blocks (tens),
  // far below where a heap would matter against the per-record copy cost.
  std::size_t best = runs_.size();
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (best == runs_.size()) {
      best = i;
      continue;
    }
    const align::AlignmentRecord& a = runs_[i]->head();
    const align::AlignmentRecord& b = runs_[best]->head();
    if (a.rid_a != b.rid_a ? a.rid_a < b.rid_a : a.rid_b < b.rid_b) best = i;
  }
  if (best == runs_.size()) return false;
  Run& r = *runs_[best];
  out = r.buffer[r.pos++];
  if (r.pos >= r.buffer.size() && !r.refill(buffer_records_)) {
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(best));
  }
  return true;
}

}  // namespace dibella::core
