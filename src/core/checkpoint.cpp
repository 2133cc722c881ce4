#include "core/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/config.hpp"
#include "io/read.hpp"
#include "util/checksum.hpp"

namespace dibella::core {

namespace fs = std::filesystem;

namespace {

constexpr u32 kPayloadMagic = 0x4442434Bu;  // "DBCK"
const char kManifestName[] = "manifest.tsv";
const char kManifestHeader[] = "dibella-checkpoint\tv1";

template <class T>
u32 crc_value(const T& v, u32 crc) {
  return util::crc32(&v, sizeof(T), crc);
}

}  // namespace

const char* checkpoint_stage_name(CheckpointStage stage) {
  switch (stage) {
    case CheckpointStage::kNone: return "none";
    case CheckpointStage::kBloom: return "bloom";
    case CheckpointStage::kHashTable: return "ht";
    case CheckpointStage::kOverlap: return "overlap";
    case CheckpointStage::kAlignment: return "align";
  }
  return "unknown";
}

u32 checkpoint_fingerprint(const std::vector<io::Read>& reads,
                           const PipelineConfig& config, int ranks) {
  u32 crc = util::crc32("dibella-ckpt-v2", 15);
  crc = crc_value(ranks, crc);
  const u64 n = reads.size();
  crc = crc_value(n, crc);
  for (const io::Read& r : reads) {
    crc = crc_value(r.gid, crc);
    crc = util::crc32(r.seq.data(), r.seq.size(), crc);
  }
  // Output-determining config fields only; schedule knobs (overlap_comm,
  // blocks, batch sizes) are excluded — outputs are invariant to them.
  crc = crc_value(config.k, crc);
  crc = crc_value(config.min_kmer_count, crc);
  crc = crc_value(config.resolved_max_kmer_count(), crc);
  crc = crc_value(config.minimizer_w, crc);
  crc = crc_value(config.syncmer, crc);
  crc = crc_value(config.chain, crc);
  crc = crc_value(config.seed_filter.policy, crc);
  crc = crc_value(config.seed_filter.min_distance, crc);
  crc = crc_value(config.seed_filter.max_seeds, crc);
  crc = crc_value(config.scoring.match, crc);
  crc = crc_value(config.scoring.mismatch, crc);
  crc = crc_value(config.scoring.gap, crc);
  crc = crc_value(config.xdrop, crc);
  crc = crc_value(config.min_report_score, crc);
  return crc;
}

std::shared_ptr<CheckpointSet> CheckpointSet::start(const std::string& dir,
                                                    u32 fingerprint, int ranks) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  DIBELLA_CHECK(!ec, "CheckpointSet: cannot create checkpoint directory " + dir);
  auto set = std::shared_ptr<CheckpointSet>(new CheckpointSet(dir, fingerprint, ranks));
  std::ofstream out(set->manifest_path(), std::ios::trunc);
  DIBELLA_CHECK(out.good(), "CheckpointSet: cannot write " + set->manifest_path());
  out << kManifestHeader << "\n"
      << "fingerprint\t" << fingerprint << "\n"
      << "ranks\t" << ranks << "\n";
  out.close();
  DIBELLA_CHECK(out.good(), "CheckpointSet: short write to " + set->manifest_path());
  return set;
}

std::shared_ptr<CheckpointSet> CheckpointSet::open(const std::string& dir,
                                                   u32 fingerprint, int ranks) {
  auto set = std::shared_ptr<CheckpointSet>(new CheckpointSet(dir, fingerprint, ranks));
  std::ifstream in(set->manifest_path());
  DIBELLA_CHECK(in.good(), "CheckpointSet: no checkpoint manifest at " +
                               set->manifest_path() + " (nothing to resume)");
  std::string line;
  DIBELLA_CHECK(std::getline(in, line) && line == kManifestHeader,
                "CheckpointSet: " + set->manifest_path() +
                    " is not a checkpoint manifest");
  bool saw_fingerprint = false;
  bool saw_ranks = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    if (key == "fingerprint") {
      u64 stored = 0;
      DIBELLA_CHECK(static_cast<bool>(fields >> stored),
                    "CheckpointSet: malformed fingerprint line in manifest");
      DIBELLA_CHECK(
          stored == fingerprint,
          "CheckpointSet: checkpoint at " + dir +
              " was written by a different run (input reads, rank count, or "
              "output-determining parameters changed); refusing to resume");
      saw_fingerprint = true;
    } else if (key == "ranks") {
      int stored = 0;
      DIBELLA_CHECK(static_cast<bool>(fields >> stored),
                    "CheckpointSet: malformed ranks line in manifest");
      DIBELLA_CHECK(stored == ranks,
                    "CheckpointSet: checkpoint at " + dir + " was written with " +
                        std::to_string(stored) + " ranks; this run has " +
                        std::to_string(ranks));
      saw_ranks = true;
    } else if (key == "complete") {
      u32 stage = 0;
      DIBELLA_CHECK(static_cast<bool>(fields >> stage) &&
                        stage >= static_cast<u32>(CheckpointStage::kBloom) &&
                        stage <= static_cast<u32>(CheckpointStage::kAlignment),
                    "CheckpointSet: malformed completion line in manifest");
      if (stage > static_cast<u32>(set->last_complete_)) {
        set->last_complete_ = static_cast<CheckpointStage>(stage);
      }
    }
  }
  DIBELLA_CHECK(saw_fingerprint && saw_ranks,
                "CheckpointSet: manifest at " + set->manifest_path() +
                    " is missing its fingerprint or rank count");
  DIBELLA_CHECK(set->last_complete_ != CheckpointStage::kNone,
                "CheckpointSet: checkpoint at " + dir +
                    " records no completed stage; nothing to resume");
  return set;
}

CheckpointStage CheckpointSet::probe_last_complete(const std::string& dir) {
  std::ifstream in((fs::path(dir) / kManifestName).string());
  if (!in.good()) return CheckpointStage::kNone;
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) return CheckpointStage::kNone;
  CheckpointStage last = CheckpointStage::kNone;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    u32 stage = 0;
    if ((fields >> key >> stage) && key == "complete" &&
        stage >= static_cast<u32>(CheckpointStage::kBloom) &&
        stage <= static_cast<u32>(CheckpointStage::kAlignment) &&
        stage > static_cast<u32>(last)) {
      last = static_cast<CheckpointStage>(stage);
    }
  }
  return last;
}

std::string CheckpointSet::manifest_path() const {
  return (fs::path(dir_) / kManifestName).string();
}

std::string CheckpointSet::payload_path(CheckpointStage stage, int rank) const {
  return (fs::path(dir_) / ("stage" + std::to_string(static_cast<u32>(stage)) + "." +
                            checkpoint_stage_name(stage) + ".r" +
                            std::to_string(rank) + ".bin"))
      .string();
}

void CheckpointSet::write_payload(CheckpointStage stage, int rank,
                                  const std::vector<u8>& bytes) const {
  const std::string path = payload_path(stage, rank);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DIBELLA_CHECK(out.good(), "CheckpointSet: cannot open " + path);
  const u32 magic = kPayloadMagic;
  const u64 payload = bytes.size();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&payload), sizeof(payload));
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  const u32 crc = util::crc32(bytes.data(), bytes.size());
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  DIBELLA_CHECK(out.good(), "CheckpointSet: short write to " + path);
  std::lock_guard<std::mutex> lock(io_mu_);
  ++io_.payloads_written;
  io_.bytes_written += bytes.size();
}

std::vector<u8> CheckpointSet::read_payload(CheckpointStage stage, int rank) const {
  const std::string path = payload_path(stage, rank);
  std::ifstream in(path, std::ios::binary);
  DIBELLA_CHECK(in.good(), "CheckpointSet: missing checkpoint payload " + path);
  u32 magic = 0;
  u64 payload = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&payload), sizeof(payload));
  DIBELLA_CHECK(in.good() && magic == kPayloadMagic,
                "CheckpointSet: " + path + " is not a checkpoint payload (bad magic)");
  // Check the length field against the file before allocating: a corrupted
  // header must fail as a typed error, not as a huge allocation.
  std::error_code ec;
  const u64 file_bytes = std::filesystem::file_size(path, ec);
  constexpr u64 kFraming = sizeof(magic) + sizeof(payload) + sizeof(u32);
  DIBELLA_CHECK(!ec && file_bytes >= kFraming && payload == file_bytes - kFraming,
                "CheckpointSet: length field of " + path +
                    " does not match the file size (truncated or trailing bytes)");
  std::vector<u8> bytes(static_cast<std::size_t>(payload));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(payload));
  DIBELLA_CHECK(static_cast<u64>(in.gcount()) == payload,
                "CheckpointSet: truncated checkpoint payload " + path);
  u32 stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  DIBELLA_CHECK(in.gcount() == static_cast<std::streamsize>(sizeof(stored)) &&
                    stored == util::crc32(bytes.data(), bytes.size()),
                "CheckpointSet: CRC32 mismatch in checkpoint payload " + path +
                    " (corrupted on disk)");
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    ++io_.payloads_read;
    io_.bytes_read += bytes.size();
  }
  return bytes;
}

void CheckpointSet::mark_complete(CheckpointStage stage) {
  std::ofstream out(manifest_path(), std::ios::app);
  DIBELLA_CHECK(out.good(), "CheckpointSet: cannot append to " + manifest_path());
  out << "complete\t" << static_cast<u32>(stage) << "\t"
      << checkpoint_stage_name(stage) << "\n";
  out.close();
  DIBELLA_CHECK(out.good(), "CheckpointSet: short write to " + manifest_path());
  last_complete_ = stage;
}

}  // namespace dibella::core
