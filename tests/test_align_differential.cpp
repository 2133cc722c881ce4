// Differential property suite for the allocation-free alignment kernels:
// the optimized x-drop implementations must produce bitwise-identical
// scores, spans, and `cells` counters to the retained reference kernels
// (align::ref) across randomized (length, error rate,
// scoring, x-drop) combinations — including empty and one-sided extensions,
// lengths around the AVX2 vector width, wide bands spanning many vectors,
// non-ACGT bytes, and reverse-complement-orientation seeds. Every x-drop
// case runs through each kernel this host can execute (the scalar kernel
// always, the AVX2 kernel where the CPU has it), not only the dispatched one.
//
// This binary also replaces the global operator new/delete with counting
// versions to prove the tentpole claim directly: after a warm-up pass, the
// steady-state alignment loop performs zero heap allocations per seed.

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "align/detail/xdrop_kernels.hpp"
#include "align/reference_kernels.hpp"
#include "align/workspace.hpp"
#include "align/xdrop.hpp"
#include "kmer/dna.hpp"
#include "util/random.hpp"

// --- counting allocator ------------------------------------------------------
// Counts every scalar/array new in the process. The zero-allocation test
// reads the counter around a loop that contains no gtest machinery.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs our malloc-backed operator new with the free() inside our
// operator delete and flags the pair as mismatched; they are in fact the
// matched halves of the same replacement allocator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

// -----------------------------------------------------------------------------

namespace da = dibella::align;
using dibella::u64;

namespace {

std::string random_dna(dibella::util::Xoshiro256& rng, std::size_t n) {
  std::string s(n, 'A');
  for (auto& c : s) c = "ACGT"[rng.uniform_below(4)];
  return s;
}

std::string mutate(const std::string& s, double rate, dibella::util::Xoshiro256& rng) {
  std::string out;
  for (char c : s) {
    if (rng.bernoulli(rate)) {
      double roll = rng.uniform();
      if (roll < 0.4) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
      } else if (roll < 0.7) {
        out.push_back("ACGT"[rng.uniform_below(4)]);
        out.push_back(c);
      }  // else deletion
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Partner of `a` at a given error model; rate < 0 means unrelated sequence.
std::string partner(const std::string& a, double rate, dibella::util::Xoshiro256& rng) {
  if (rate < 0) return random_dna(rng, a.size());
  return mutate(a, rate, rng);
}

/// DNA with `N` runs and arbitrary non-ACGT bytes (lowercase, NUL, high
/// bytes) mixed in. The kernels compare raw bytes, so equal non-ACGT bytes
/// in both sequences score as matches.
std::string dirty_dna(dibella::util::Xoshiro256& rng, std::size_t n) {
  std::string s = random_dna(rng, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double roll = rng.uniform();
    if (roll < 0.02) {
      const std::size_t run = 1 + rng.uniform_below(12);
      for (std::size_t r = 0; r < run && i < n; ++r, ++i) s[i] = 'N';
    } else if (roll < 0.06) {
      s[i] = static_cast<char>(rng.uniform_below(256));
    }
  }
  return s;
}

struct KernelUnderTest {
  const char* name;
  da::detail::XdropKernel fn;
};

/// The scalar kernel always; the AVX2 kernel too where this CPU runs it.
std::vector<KernelUnderTest> kernels_under_test() {
  std::vector<KernelUnderTest> kernels = {{"scalar", da::detail::xdrop_extend_scalar}};
  if (da::detail::avx2_supported()) {
    kernels.push_back({"avx2", da::detail::xdrop_extend_avx2});
  }
  return kernels;
}

void expect_extend_equal(const da::ExtendResult& got, const da::ExtendResult& want,
                         const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.ext_a, want.ext_a) << what;
  EXPECT_EQ(got.ext_b, want.ext_b) << what;
  EXPECT_EQ(got.cells, want.cells) << what;
}

void expect_seed_equal(const da::SeedAlignment& got, const da::SeedAlignment& want,
                       const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.a_begin, want.a_begin) << what;
  EXPECT_EQ(got.a_end, want.a_end) << what;
  EXPECT_EQ(got.b_begin, want.b_begin) << what;
  EXPECT_EQ(got.b_end, want.b_end) << what;
  EXPECT_EQ(got.cells, want.cells) << what;
}

const std::vector<da::Scoring> kScorings = {
    {1, -2, -2},  // project default
    {1, -1, -1},  // the classic scheme the scoring header warns about
    {2, -3, -4},
};

// rate -1 = unrelated random partner (one-sided / dead extensions).
const std::vector<double> kErrorRates = {0.0, 0.05, 0.15, 0.30, -1.0};

}  // namespace

TEST(AlignDifferential, XdropExtendMatchesReferenceEverywhere) {
  dibella::util::Xoshiro256 rng(101);
  da::Workspace ws;
  // Each case is checked against the reference through every kernel and
  // through the dispatched public entry point, all on one shared workspace
  // (so each kernel also starts from buffers the other one left behind).
  int cases = 0;
  auto check = [&](const std::string& a, const std::string& b, const da::Scoring& sc,
                   int xd, const std::string& what) {
    const auto want = da::ref::xdrop_extend(a, b, sc, xd);
    for (const auto& kernel : kernels_under_test()) {
      expect_extend_equal(kernel.fn(a, b, /*reversed=*/false, sc, xd, ws), want,
                          std::string(kernel.name) + " " + what);
    }
    expect_extend_equal(da::xdrop_extend(a, b, sc, xd, ws), want, "dispatched " + what);
    ++cases;
  };

  // Lengths around the 8-lane vector width sit beside the original grid.
  const std::vector<std::size_t> lens = {0,  1,  2,  3,  7,  8,  9,  15,
                                         16, 17, 31, 32, 33, 64, 200};
  const std::vector<int> xdrops = {1, 5, 25, 1000000};
  for (std::size_t len : lens) {
    for (double rate : kErrorRates) {
      for (const auto& sc : kScorings) {
        for (int xd : xdrops) {
          std::string a = random_dna(rng, len);
          std::string b = partner(a, rate, rng);
          check(a, b, sc, xd,
                "len=" + std::to_string(len) + " rate=" + std::to_string(rate) +
                    " xd=" + std::to_string(xd));
        }
      }
    }
  }
  // One-sided extensions: one sequence empty.
  for (std::size_t len : {1u, 5u, 8u, 9u, 40u}) {
    for (const auto& sc : kScorings) {
      for (int xd : {2, 25}) {
        std::string a = random_dna(rng, len);
        check(a, "", sc, xd, "one-sided a, len=" + std::to_string(len));
        check("", a, sc, xd, "one-sided b, len=" + std::to_string(len));
      }
    }
  }
  // Unequal lengths: the band is clipped by the shorter sequence.
  for (std::size_t len : {9u, 33u, 120u}) {
    std::string a = random_dna(rng, len);
    std::string b = mutate(a, 0.1, rng) + random_dna(rng, 3 * len);
    check(a, b, da::Scoring{}, 1000000, "unequal a<b, len=" + std::to_string(len));
    check(b, a, da::Scoring{}, 1000000, "unequal a>b, len=" + std::to_string(len));
  }
  // N runs and other non-ACGT bytes, shared by both sequences (equal bytes
  // score as matches) and independent.
  for (std::size_t len : {7u, 16u, 33u, 200u}) {
    for (double rate : {0.0, 0.05, 0.15}) {
      for (int xd : {5, 25, 1000000}) {
        std::string a = dirty_dna(rng, len);
        check(a, mutate(a, rate, rng), da::Scoring{}, xd,
              "dirty shared len=" + std::to_string(len) + " rate=" + std::to_string(rate));
        check(a, dirty_dna(rng, len), da::Scoring{}, xd,
              "dirty unrelated len=" + std::to_string(len));
      }
    }
  }
  // Wide bands: at x = 10^6 a 2 kbp extension keeps hundreds of live cells
  // per antidiagonal, spanning many vectors.
  for (double rate : {0.05, 0.15, -1.0}) {
    std::string a = random_dna(rng, 2000);
    check(a, partner(a, rate, rng), da::Scoring{}, 1000000,
          "2 kbp rate=" + std::to_string(rate));
  }
  // The x-drop cap: {2,-3,-4} at kXdropMaxX and beyond it behave as the
  // uncapped reference.
  const da::Scoring steep{2, -3, -4};
  for (std::size_t len : {8u, 33u, 200u}) {
    for (double rate : kErrorRates) {
      for (int xd : {da::detail::kXdropMaxX, INT_MAX}) {
        std::string a = random_dna(rng, len);
        check(a, partner(a, rate, rng), steep, xd,
              "cap len=" + std::to_string(len) + " xd=" + std::to_string(xd));
      }
    }
  }
  EXPECT_GE(cases, 1000);
}

TEST(AlignDifferential, AlignFromSeedMatchesReferenceOnRandomSeeds) {
  dibella::util::Xoshiro256 rng(202);
  da::Workspace ws;
  int cases = 0;
  auto check = [&](const std::string& a, const std::string& b, u64 pos_a, u64 pos_b, int k,
                   const da::Scoring& sc, int xd, const std::string& what) {
    const auto want = da::ref::align_from_seed(a, b, pos_a, pos_b, k, sc, xd);
    for (const auto& kernel : kernels_under_test()) {
      expect_seed_equal(
          da::detail::align_from_seed_with(kernel.fn, a, b, pos_a, pos_b, k, sc, xd, ws),
          want, std::string(kernel.name) + " " + what);
    }
    expect_seed_equal(da::align_from_seed(a, b, pos_a, pos_b, k, sc, xd, ws), want,
                      "dispatched " + what);
    ++cases;
  };

  for (int trial = 0; trial < 160; ++trial) {
    // Trials 120..159 use short reads around the vector width (both
    // extensions only a few cells long) or reads with non-ACGT bytes.
    std::size_t len_a = 20 + rng.uniform_below(380);
    if (trial >= 120) len_a = std::vector<std::size_t>{7, 8, 9, 15, 16, 17, 31, 32, 33,
                                                       48}[trial % 10];
    const double rate = kErrorRates[rng.uniform_below(kErrorRates.size())];
    const auto& sc = kScorings[trial % kScorings.size()];
    const int xd = std::vector<int>{1, 10, 50, 500}[rng.uniform_below(4)];
    int k = std::vector<int>{4, 11, 17}[rng.uniform_below(3)];
    if (trial >= 120) k = 4;
    std::string a = trial >= 140 ? dirty_dna(rng, len_a) : random_dna(rng, len_a);
    std::string b = partner(a, rate, rng);
    if (a.size() < static_cast<std::size_t>(k) || b.size() < static_cast<std::size_t>(k)) {
      continue;
    }
    // Random anchor, plus the two edge anchors (empty left / empty right
    // extension) every few trials.
    std::vector<std::pair<u64, u64>> anchors;
    anchors.emplace_back(rng.uniform_below(a.size() - k + 1),
                         rng.uniform_below(b.size() - k + 1));
    if (trial % 4 == 0) {
      anchors.emplace_back(0, 0);  // empty left extension
      anchors.emplace_back(a.size() - k, b.size() - k);  // empty right extension
    }
    for (auto [pos_a, pos_b] : anchors) {
      check(a, b, pos_a, pos_b, k, sc, xd,
            "trial=" + std::to_string(trial) + " pos_a=" + std::to_string(pos_a) +
                " pos_b=" + std::to_string(pos_b));
    }
  }
  // A 2 kbp overlap anchored mid-read at x = 10^6: both extensions run
  // bands of hundreds of cells.
  std::string genome = random_dna(rng, 3000);
  std::string a = mutate(genome.substr(0, 2000), 0.1, rng);
  std::string b = mutate(genome.substr(1000, 2000), 0.1, rng);
  check(a, b, 1500, 500, 17, da::Scoring{}, 1000000, "2 kbp wide band");
  EXPECT_GE(cases, 160);
}

TEST(AlignDifferential, AlignFromSeedMatchesReferenceInRcFrames) {
  // Reverse-complement-orientation seeds, mapped into the RC frame exactly
  // as the alignment stage does it.
  dibella::util::Xoshiro256 rng(303);
  da::Workspace ws;
  const int k = 17;
  for (int trial = 0; trial < 40; ++trial) {
    std::string genome = random_dna(rng, 600 + rng.uniform_below(400));
    const std::size_t half = genome.size() / 2;
    std::string a = mutate(genome.substr(0, 2 * half / 3 + k), 0.1, rng);
    std::string b_fwd =
        dibella::kmer::reverse_complement(mutate(genome.substr(half / 3), 0.1, rng));
    // The stage aligns a against rc(b_fwd) — build that frame and pick a
    // random in-bounds seed.
    std::string b_rc = dibella::kmer::reverse_complement(b_fwd);
    if (a.size() < static_cast<std::size_t>(k) || b_rc.size() < static_cast<std::size_t>(k)) {
      continue;
    }
    u64 pos_a = rng.uniform_below(a.size() - k + 1);
    u64 pos_b = rng.uniform_below(b_rc.size() - k + 1);
    const auto& sc = kScorings[trial % kScorings.size()];
    auto want = da::ref::align_from_seed(a, b_rc, pos_a, pos_b, k, sc, 50);
    for (const auto& kernel : kernels_under_test()) {
      auto got = da::detail::align_from_seed_with(kernel.fn, a, b_rc, pos_a, pos_b, k, sc,
                                                  50, ws);
      expect_seed_equal(got, want,
                        std::string(kernel.name) + " rc trial=" + std::to_string(trial));
    }
  }
}

TEST(AlignDifferential, SteadyStateAlignmentLoopIsAllocationFree) {
  // Build a PacBio-like workload: overlapping noisy read pairs with known
  // anchors, including reverse-complement-orientation pairs.
  dibella::util::Xoshiro256 rng(606);
  const int k = 17;
  struct Task {
    std::string a, b;
    u64 pos_a, pos_b;
    bool same_orientation;
  };
  std::vector<Task> tasks;
  for (int t = 0; t < 24; ++t) {
    std::string genome = random_dna(rng, 2400);
    std::string a = mutate(genome.substr(0, 1600), 0.12, rng);
    std::string b = mutate(genome.substr(800, 1600), 0.12, rng);
    bool rc = t % 3 == 0;
    if (rc) b = dibella::kmer::reverse_complement(b);
    // Anchor roughly in the middle of the shared region of both reads
    // (positions need not be an exact k-mer match for the kernel).
    tasks.push_back(Task{std::move(a), std::move(b), 1100, 300, !rc});
  }

  da::Scoring sc;
  auto run_pass = [&](da::detail::XdropKernel kernel, da::Workspace& ws) {
    u64 checksum = 0;
    for (const auto& t : tasks) {
      std::string_view bseq;
      if (t.same_orientation) {
        bseq = t.b;
      } else {
        // The alignment stage's hoisted reverse-complement buffer.
        dibella::kmer::reverse_complement_into(t.b, ws.b_rc);
        bseq = ws.b_rc;
      }
      if (t.pos_a + k > t.a.size() || t.pos_b + k > bseq.size()) continue;
      auto sa =
          da::detail::align_from_seed_with(kernel, t.a, bseq, t.pos_a, t.pos_b, k, sc, 25, ws);
      checksum += static_cast<u64>(sa.score) + sa.cells;
    }
    return checksum;
  };

  // Each kernel on a fresh workspace: its own warm-up must size every buffer
  // it uses (bands and, for AVX2, the padded sequence copies).
  std::vector<u64> checksums;
  for (const auto& kernel : kernels_under_test()) {
    da::Workspace ws;
    const u64 first = run_pass(kernel.fn, ws);  // warm-up: buffers grow to workload maxima
    const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    const u64 second = run_pass(kernel.fn, ws);
    const std::uint64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);

    EXPECT_EQ(second, first) << kernel.name;  // deterministic kernels
    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << kernel.name << ": steady-state alignment loop must not allocate";
    checksums.push_back(first);
  }
  for (u64 c : checksums) EXPECT_EQ(c, checksums.front());  // kernels agree
}

TEST(AlignDifferential, DispatchPicksAvx2WhereSupported) {
  if (!da::detail::avx2_supported()) {
    EXPECT_EQ(da::xdrop_kernel_lanes(), 1);
    GTEST_SKIP() << "CPU without AVX2: only the scalar x-drop kernel runs here";
  }
  EXPECT_EQ(da::xdrop_kernel_lanes(), 8);
}
