#include "comm/fault.hpp"

#include <cstdlib>

namespace dibella::comm {

namespace {

const char* const kStageNames[] = {"bloom", "ht", "overlap", "align", "sgraph"};

bool known_stage(const std::string& stage) {
  for (const char* s : kStageNames) {
    if (stage == s) return true;
  }
  return false;
}

FaultKind parse_kind(const std::string& word, const std::string& spec) {
  if (word == "drop") return FaultKind::kDrop;
  if (word == "duplicate" || word == "dup") return FaultKind::kDuplicate;
  if (word == "delay") return FaultKind::kDelay;
  if (word == "truncate") return FaultKind::kTruncate;
  if (word == "bitflip") return FaultKind::kBitFlip;
  if (word == "abort") return FaultKind::kAbort;
  throw Error("bad fault spec '" + spec + "': unknown kind '" + word +
              "' (expected drop|duplicate|delay|truncate|bitflip|abort)");
}

u64 parse_number(const std::string& word, const std::string& spec, const char* field) {
  char* end = nullptr;
  const u64 v = std::strtoull(word.c_str(), &end, 10);
  if (word.empty() || end != word.c_str() + word.size()) {
    throw Error("bad fault spec '" + spec + "': " + field + " '" + word +
                "' is not a number");
  }
  return v;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kBitFlip: return "bitflip";
    case FaultKind::kAbort: return "abort";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::vector<FaultSpec> specs) : specs_(std::move(specs)) {
  fired_ = std::make_unique<std::atomic<bool>[]>(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) fired_[i].store(false);
}

std::shared_ptr<const FaultPlan> FaultPlan::parse(const std::string& text) {
  std::vector<FaultSpec> specs;
  std::size_t at = 0;
  while (at <= text.size()) {
    std::size_t comma = text.find(',', at);
    if (comma == std::string::npos) comma = text.size();
    const std::string spec = text.substr(at, comma - at);
    at = comma + 1;
    if (spec.empty()) {
      throw Error("bad fault spec '" + text + "': empty entry (expected "
                  "kind@stage:epoch[:rank])");
    }
    const std::size_t at_sign = spec.find('@');
    if (at_sign == std::string::npos) {
      throw Error("bad fault spec '" + spec + "': expected kind@stage:epoch[:rank]");
    }
    FaultSpec out;
    out.kind = parse_kind(spec.substr(0, at_sign), spec);
    std::string rest = spec.substr(at_sign + 1);
    const std::size_t colon1 = rest.find(':');
    if (colon1 == std::string::npos) {
      throw Error("bad fault spec '" + spec + "': missing ':epoch' (expected "
                  "kind@stage:epoch[:rank])");
    }
    out.stage = rest.substr(0, colon1);
    if (!known_stage(out.stage)) {
      throw Error("bad fault spec '" + spec + "': unknown stage '" + out.stage +
                  "' (expected bloom|ht|overlap|align|sgraph)");
    }
    rest = rest.substr(colon1 + 1);
    const std::size_t colon2 = rest.find(':');
    if (colon2 == std::string::npos) {
      out.epoch = parse_number(rest, spec, "epoch");
    } else {
      out.epoch = parse_number(rest.substr(0, colon2), spec, "epoch");
      out.rank = static_cast<int>(parse_number(rest.substr(colon2 + 1), spec, "rank"));
    }
    specs.push_back(std::move(out));
  }
  return std::make_shared<const FaultPlan>(FaultPlan(std::move(specs)));
}

void FaultPlan::maybe_abort(const std::string& stage, u64 index, int rank) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i];
    if (s.kind != FaultKind::kAbort || s.rank != rank || s.stage != stage ||
        index < s.epoch) {
      continue;
    }
    if (fired_[i].exchange(true)) continue;  // one-shot
    throw RankFailure(rank, "injected rank abort: rank " + std::to_string(rank) +
                                " at stage '" + stage + "' collective " +
                                std::to_string(index));
  }
}

std::optional<FaultKind> FaultPlan::transport_fault(const std::string& stage,
                                                    u64 index, int rank) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i];
    if (s.kind == FaultKind::kAbort || s.rank != rank || s.stage != stage ||
        index < s.epoch) {
      continue;
    }
    if (fired_[i].exchange(true)) continue;  // one-shot
    return s.kind;
  }
  return std::nullopt;
}

}  // namespace dibella::comm
