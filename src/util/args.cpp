#include "util/args.hpp"

#include <cstdlib>

namespace dibella::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      values_[body] = "true";  // bare boolean flag
    }
  }
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

void Args::reject_unknown(const std::set<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    if (known.count(key) == 0) throw UsageError("unknown option --" + key);
  }
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

i64 Args::get_i64(const std::string& key, i64 fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  return end == it->second.c_str() ? fallback : static_cast<i64>(v);
}

double Args::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  return end == it->second.c_str() ? fallback : v;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

}  // namespace dibella::util
