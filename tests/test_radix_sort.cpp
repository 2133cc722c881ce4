// Differential tests for util::radix_sort_u64 against a std::stable_sort
// oracle: random and adversarial key distributions, stability on equal keys,
// and multi-component (chained-pass) keys as used by the stage-3 task
// consolidation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/radix_sort.hpp"
#include "util/random.hpp"

using dibella::u32;
using dibella::u64;
using dibella::util::radix_sort_u64;

namespace {

/// Element with a payload index so stability violations are observable.
struct Keyed {
  u64 key;
  u32 tag;  // original position
};

std::vector<Keyed> tag(const std::vector<u64>& keys) {
  std::vector<Keyed> v;
  v.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    v.push_back({keys[i], static_cast<u32>(i)});
  }
  return v;
}

/// Sort with the oracle (std::stable_sort on key only) and with the radix
/// sort, and require the *full element sequences* to match — equal keys must
/// keep their input order in both.
void check_against_oracle(std::vector<u64> keys) {
  auto expect = tag(keys);
  auto got = tag(keys);
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  radix_sort_u64(got, [](const Keyed& e) { return e.key; });
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expect[i].key) << "at index " << i;
    EXPECT_EQ(got[i].tag, expect[i].tag) << "stability broken at index " << i;
  }
}

}  // namespace

TEST(RadixSort, EmptyAndSingleton) {
  check_against_oracle({});
  check_against_oracle({42});
}

TEST(RadixSort, RandomUniform64Bit) {
  dibella::util::Xoshiro256 rng(1);
  std::vector<u64> keys(10'000);
  for (auto& k : keys) k = rng.next();
  check_against_oracle(std::move(keys));
}

TEST(RadixSort, RandomNarrowKeys) {
  // Only the low byte varies: the constant-byte skip must not mis-sort.
  dibella::util::Xoshiro256 rng(2);
  std::vector<u64> keys(10'000);
  for (auto& k : keys) k = rng.uniform_below(256);
  check_against_oracle(std::move(keys));
}

TEST(RadixSort, HighByteOnlyVaries) {
  // Low 56 bits constant, high byte random — exercises skipping a *prefix*
  // of constant passes rather than a suffix.
  dibella::util::Xoshiro256 rng(3);
  std::vector<u64> keys(5'000);
  for (auto& k : keys) k = (rng.uniform_below(256) << 56) | 0x00F0F0F0F0F0F0F0ull;
  check_against_oracle(std::move(keys));
}

TEST(RadixSort, MiddleBytesOnlyVary) {
  dibella::util::Xoshiro256 rng(4);
  std::vector<u64> keys(5'000);
  for (auto& k : keys) k = (rng.uniform_below(1u << 16)) << 24;
  check_against_oracle(std::move(keys));
}

TEST(RadixSort, AllKeysEqual) {
  std::vector<u64> keys(1'000, 0xDEADBEEFCAFEF00Dull);
  check_against_oracle(std::move(keys));
}

TEST(RadixSort, AlreadySortedAndReverseSorted) {
  std::vector<u64> asc(4'096);
  for (std::size_t i = 0; i < asc.size(); ++i) asc[i] = i * 3;
  auto desc = asc;
  std::reverse(desc.begin(), desc.end());
  check_against_oracle(std::move(asc));
  check_against_oracle(std::move(desc));
}

TEST(RadixSort, HeavyDuplicates) {
  // Few distinct keys, many copies each — stability does all the work.
  dibella::util::Xoshiro256 rng(5);
  std::vector<u64> keys(20'000);
  for (auto& k : keys) k = rng.uniform_below(7) * 1'000'003;
  check_against_oracle(std::move(keys));
}

TEST(RadixSort, ExtremeValues) {
  std::vector<u64> keys = {
      std::numeric_limits<u64>::max(), 0, 1,
      std::numeric_limits<u64>::max() - 1,
      std::numeric_limits<u64>::max(), 0,
      0x8000000000000000ull, 0x7FFFFFFFFFFFFFFFull,
  };
  check_against_oracle(std::move(keys));
}

TEST(RadixSort, SawtoothAndOrganPipe) {
  // Classic adversarial shapes for partition-based sorts; radix should not
  // care, but they make good oracle fodder.
  std::vector<u64> saw(9'999), organ(9'999);
  for (std::size_t i = 0; i < saw.size(); ++i) {
    saw[i] = i % 17;
    organ[i] = std::min(i, saw.size() - 1 - i);
  }
  check_against_oracle(std::move(saw));
  check_against_oracle(std::move(organ));
}

TEST(RadixSort, ChainedPassesSortMultiComponentKeys) {
  // The pair-run grouping pattern (overlap::encode_pair_runs groups a batch
  // by (rid_a, rid_b)): sorting by a tuple (hi, lo) via two
  // chained stable passes, least-significant component first, must equal a
  // single comparison sort on the tuple.
  struct Task {
    u32 hi, lo, tag;
  };
  dibella::util::Xoshiro256 rng(6);
  std::vector<Task> v(8'000);
  for (u32 i = 0; i < v.size(); ++i) {
    v[i] = {static_cast<u32>(rng.uniform_below(50)),
            static_cast<u32>(rng.uniform_below(50)), i};
  }
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end(), [](const Task& a, const Task& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  });
  radix_sort_u64(v, [](const Task& t) { return static_cast<u64>(t.lo); });
  radix_sort_u64(v, [](const Task& t) { return static_cast<u64>(t.hi); });
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i].hi, expect[i].hi);
    EXPECT_EQ(v[i].lo, expect[i].lo);
    EXPECT_EQ(v[i].tag, expect[i].tag) << "chained-pass stability broken at " << i;
  }
}

TEST(RadixSort, LargeRandomMatchesOracle) {
  dibella::util::Xoshiro256 rng(7);
  std::vector<u64> keys(200'000);
  for (auto& k : keys) k = rng.next();
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  radix_sort_u64(keys, [](u64 k) { return k; });
  EXPECT_EQ(keys, expect);
}

TEST(RadixSort, OneScratchServesManyCallsOfEverySize) {
  // A caller that sorts one pair's seeds at a time keeps one scratch: every
  // call, growing or shrinking, odd or even pass count, equals the oracle
  // (stability included).
  dibella::util::Xoshiro256 rng(11);
  dibella::util::RadixScratch<Keyed> scratch;
  for (int call = 0; call < 200; ++call) {
    const std::size_t n = rng.uniform_below(call % 7 == 0 ? 3'000 : 400);
    std::vector<u64> keys(n);
    const int bytes = 1 + static_cast<int>(rng.uniform_below(8));
    for (auto& k : keys) {
      k = bytes == 8 ? rng.next() : rng.next() & ((u64{1} << (8 * bytes)) - 1);
    }
    auto expect = tag(keys);
    auto got = tag(keys);
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
    radix_sort_u64(got, [](const Keyed& e) { return e.key; }, scratch);
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i].key, expect[i].key) << "call " << call << " at " << i;
      ASSERT_EQ(got[i].tag, expect[i].tag) << "call " << call << " at " << i;
    }
  }
}

TEST(RadixSort, VaryingBitsAfterAGapAreSorted) {
  // Keys whose varying bits form a run of `len` low bits, one constant bit,
  // then a few more varying bits. Each run is cut into equal digits; a
  // digit stride that steps past the run's end must not skip the bits after
  // the gap ({2^20, 2^19 - 1} at len 19 is the smallest such case). Both
  // digit widths: 8 bits below 2^14 keys, 11 bits from there on.
  dibella::util::Xoshiro256 rng(12);
  for (const std::size_t n : {std::size_t{2}, std::size_t{1'000}, std::size_t{1} << 14}) {
    for (int len = 1; len <= 60; ++len) {
      const u64 low = (u64{1} << len) - 1;
      std::vector<u64> keys = {u64{1} << (len + 1), low};
      while (keys.size() < n) {
        keys.push_back((rng.next() & low) | ((rng.uniform_below(8) << (len + 1))));
      }
      SCOPED_TRACE(testing::Message() << "n " << n << ", run of " << len << " bits");
      check_against_oracle(std::move(keys));
    }
  }
}
