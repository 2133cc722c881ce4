#pragma once
/// \file args.hpp
/// Tiny command-line parser for the example binaries:
/// supports `--key=value` and boolean `--flag` forms. (The `--key value`
/// form is intentionally unsupported — it is ambiguous with positional
/// arguments following a boolean flag.)

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace dibella::util {

/// A command line the program cannot run (unknown or inconsistent options).
struct UsageError : Error {
  using Error::Error;
};

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  i64 get_i64(const std::string& key, i64 fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throw UsageError naming the first --key (in sorted order) outside
  /// `known`.
  void reject_unknown(const std::set<std::string>& known) const;

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dibella::util
