#pragma once
/// \file kmer.hpp
/// Fixed-capacity 2-bit packed k-mer.
///
/// Following the paper (§3), each base of the {A,C,G,T} alphabet is stored in
/// 2 bits and the k-mer representation width is a compile-time parameter
/// (PackedKmer<MAX_K>); the runtime k may be anything in [1, MAX_K]. The
/// value is kept as a big integer equal to
///     base0 * 4^(k-1) + base1 * 4^(k-2) + ... + base_{k-1}
/// so that numeric comparison of the packed words equals lexicographic
/// comparison of the base string — which makes canonicalization (min of the
/// forward form and its reverse complement) a straight word compare.

#include <array>
#include <compare>
#include <string>
#include <string_view>
#include <type_traits>

#include "kmer/dna.hpp"
#include "util/common.hpp"
#include "util/random.hpp"

namespace dibella::kmer {

template <int MAX_K>
class PackedKmer {
  static_assert(MAX_K >= 1 && MAX_K <= 1024, "unreasonable MAX_K");

 public:
  /// Number of 64-bit words backing the representation.
  static constexpr int kWords = (2 * MAX_K + 63) / 64;
  static constexpr int max_k() { return MAX_K; }

  constexpr PackedKmer() = default;

  /// Parse the first k characters of `s` (must all be valid ACGT).
  static PackedKmer from_string(std::string_view s, int k) {
    DIBELLA_CHECK(k >= 1 && k <= MAX_K, "k out of range for PackedKmer");
    DIBELLA_CHECK(s.size() >= static_cast<std::size_t>(k), "string shorter than k");
    PackedKmer out;
    for (int i = 0; i < k; ++i) {
      int code = encode_base(s[static_cast<std::size_t>(i)]);
      DIBELLA_CHECK(code >= 0, "invalid base in k-mer string");
      out.append(static_cast<u8>(code), k);
    }
    return out;
  }

  /// Roll the window one base forward: drop the front base, append `code` at
  /// the back. Also correct for building up from empty (bases simply shift in).
  void append(u8 code, int k) {
    shift_left2();
    w_[0] |= static_cast<u64>(code & 3u);
    mask_to(k);
  }

  /// Roll the *reverse-complement* window one base forward: with the forward
  /// window appending `code`, the RC window prepends complement(code) at the
  /// front. Callers keep a forward and an RC PackedKmer in lockstep to get
  /// canonical forms in O(1) per base.
  void rc_prepend(u8 code, int k) {
    shift_right2();
    set_base_raw(0, complement_code(code), k);
  }

  /// Base at position i (0 = leftmost / first base), for runtime width k.
  u8 get_base(int i, int k) const {
    int bit = 2 * (k - 1 - i);
    return static_cast<u8>((w_[static_cast<std::size_t>(bit / 64)] >> (bit % 64)) & 3u);
  }

  /// ASCII rendering of the k-mer.
  std::string to_string(int k) const {
    std::string s(static_cast<std::size_t>(k), '?');
    for (int i = 0; i < k; ++i) s[static_cast<std::size_t>(i)] = decode_base(get_base(i, k));
    return s;
  }

  /// Reverse complement as a new k-mer.
  PackedKmer reverse_complement(int k) const {
    PackedKmer out;
    for (int i = 0; i < k; ++i) {
      out.append(complement_code(get_base(k - 1 - i, k)), k);
    }
    return out;
  }

  /// Canonical form: lexicographic minimum of this k-mer and its reverse
  /// complement. `is_forward` (if given) is set to true when the forward form
  /// was chosen (ties count as forward).
  PackedKmer canonical(int k, bool* is_forward = nullptr) const {
    PackedKmer rc = reverse_complement(k);
    bool fwd = !(rc < *this);
    if (is_forward) *is_forward = fwd;
    return fwd ? *this : rc;
  }

  /// 64-bit hash of the packed value, salted; different salts give the
  /// independent hash functions needed by the Bloom filter and the
  /// owner-assignment hash.
  u64 hash(u64 salt = 0) const {
    u64 h = util::mix64(salt ^ 0x9ddfea08eb382d69ull);
    for (int i = 0; i < kWords; ++i) h = util::mix64(h ^ w_[static_cast<std::size_t>(i)]);
    return h;
  }

  friend bool operator==(const PackedKmer& a, const PackedKmer& b) { return a.w_ == b.w_; }

  friend bool operator<(const PackedKmer& a, const PackedKmer& b) {
    for (int i = kWords - 1; i >= 0; --i) {
      if (a.w_[static_cast<std::size_t>(i)] != b.w_[static_cast<std::size_t>(i)]) {
        return a.w_[static_cast<std::size_t>(i)] < b.w_[static_cast<std::size_t>(i)];
      }
    }
    return false;
  }

  friend bool operator<=(const PackedKmer& a, const PackedKmer& b) { return !(b < a); }

  /// Raw packed words (little-endian word order), for serialization.
  const std::array<u64, static_cast<std::size_t>(kWords)>& words() const { return w_; }
  std::array<u64, static_cast<std::size_t>(kWords)>& words() { return w_; }

 private:
  void shift_left2() {
    for (int i = kWords - 1; i > 0; --i) {
      w_[static_cast<std::size_t>(i)] = (w_[static_cast<std::size_t>(i)] << 2) |
                                        (w_[static_cast<std::size_t>(i - 1)] >> 62);
    }
    w_[0] <<= 2;
  }

  void shift_right2() {
    for (int i = 0; i + 1 < kWords; ++i) {
      w_[static_cast<std::size_t>(i)] = (w_[static_cast<std::size_t>(i)] >> 2) |
                                        (w_[static_cast<std::size_t>(i + 1)] << 62);
    }
    w_[static_cast<std::size_t>(kWords - 1)] >>= 2;
  }

  void set_base_raw(int i, u8 code, int k) {
    int bit = 2 * (k - 1 - i);
    auto word = static_cast<std::size_t>(bit / 64);
    int off = bit % 64;
    w_[word] = (w_[word] & ~(u64{3} << off)) | (static_cast<u64>(code & 3u) << off);
  }

  void mask_to(int k) {
    int bits = 2 * k;
    for (int i = 0; i < kWords; ++i) {
      int lo = 64 * i;
      if (bits <= lo) {
        w_[static_cast<std::size_t>(i)] = 0;
      } else if (bits < lo + 64) {
        w_[static_cast<std::size_t>(i)] &= (u64{1} << (bits - lo)) - 1;
      }
    }
  }

  std::array<u64, static_cast<std::size_t>(kWords)> w_ = {};
};

/// Project-wide default k-mer width: k up to 32 packs into a single 64-bit
/// word, covering the paper's k range (11–21, typically 17) with headroom.
/// Override with -DDIBELLA_MAX_K=<n> for longer seeds.
#ifndef DIBELLA_MAX_K
#define DIBELLA_MAX_K 32
#endif
using Kmer = PackedKmer<DIBELLA_MAX_K>;
// Shipped and checkpointed as raw bytes: no padding byte may go undefined.
static_assert(std::has_unique_object_representations_v<Kmer>);

/// Hash functor for unordered containers keyed by k-mers.
struct KmerHasher {
  std::size_t operator()(const Kmer& km) const { return static_cast<std::size_t>(km.hash()); }
};

}  // namespace dibella::kmer
