#pragma once
// Seeded byte mutations for the decoder tests of untrusted input. A decoder
// fed any mutant must either decode it into a well-formed value or throw
// dibella::Error: never another exception, never undefined behaviour.

#include <string>
#include <string_view>
#include <vector>

#include "util/random.hpp"

namespace dibella::test {

/// The mutants of `text`: every proper prefix (truncation), `flips` copies
/// with one random bit flipped, and `splices` joins of a random prefix of
/// `text` onto a random suffix of `other`.
inline std::vector<std::string> seeded_mutants(std::string_view text, std::string_view other,
                                               util::Xoshiro256& rng, int flips = 64,
                                               int splices = 32) {
  std::vector<std::string> out;
  for (std::size_t cut = 0; cut < text.size(); ++cut) out.emplace_back(text.substr(0, cut));
  for (int f = 0; f < flips && !text.empty(); ++f) {
    std::string m(text);
    m[rng.uniform_below(m.size())] ^= static_cast<char>(1u << rng.uniform_below(8));
    out.push_back(std::move(m));
  }
  for (int s = 0; s < splices; ++s) {
    std::string m(text.substr(0, rng.uniform_below(text.size() + 1)));
    m.append(other.substr(rng.uniform_below(other.size() + 1)));
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace dibella::test
