// Unit tests for the util module: timers, RNG, histogram, stats, table,
// args, env helpers, the chunk pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/args.hpp"
#include "util/chunk_pool.hpp"
#include "util/common.hpp"
#include "util/env.hpp"
#include "util/histogram.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace du = dibella::util;
using dibella::u64;

TEST(Check, ThrowsWithMessage) {
  try {
    DIBELLA_CHECK(false, "context message");
    FAIL() << "expected throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"), std::string::npos);
  }
}

TEST(WallTimer, MeasuresElapsedTime) {
  du::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(SplitMix64, DeterministicAndDistinct) {
  du::SplitMix64 a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Xoshiro, DeterministicStream) {
  du::Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, UniformBelowIsInRangeAndCoversValues) {
  du::Xoshiro256 rng(7);
  std::set<u64> seen;
  for (int i = 0; i < 2000; ++i) {
    u64 v = rng.uniform_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Xoshiro, UniformMeanIsHalf) {
  du::Xoshiro256 rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, NormalMoments) {
  du::Xoshiro256 rng(13);
  du::RunningStats s;
  for (int i = 0; i < 40000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Xoshiro, LognormalTargetsMean) {
  du::Xoshiro256 rng(17);
  du::RunningStats s;
  for (int i = 0; i < 60000; ++i) s.add(rng.lognormal(5000.0, 0.35));
  EXPECT_NEAR(s.mean(), 5000.0, 150.0);
}

TEST(Xoshiro, PoissonMeanMatchesLambdaSmallAndLarge) {
  du::Xoshiro256 rng(19);
  for (double lambda : {0.5, 4.0, 80.0}) {
    du::RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(rng.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, lambda * 0.05 + 0.05) << "lambda=" << lambda;
  }
}

TEST(RunningStats, BasicMoments) {
  du::RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(LoadImbalance, PerfectAndSkewed) {
  EXPECT_DOUBLE_EQ(du::load_imbalance({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(du::load_imbalance({2.0, 0.0, 0.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(du::load_imbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(du::load_imbalance({0.0, 0.0}), 1.0);
}

TEST(Histogram, CountsAndQuantiles) {
  du::Histogram h;
  for (u64 v : {1, 1, 2, 3, 3, 3, 10}) h.add(v);
  EXPECT_EQ(h.total_count(), 7u);
  EXPECT_EQ(h.distinct_values(), 4u);
  EXPECT_EQ(h.count_of(3), 3u);
  EXPECT_EQ(h.count_of(4), 0u);
  EXPECT_EQ(h.min_value(), 1u);
  EXPECT_EQ(h.max_value(), 10u);
  EXPECT_EQ(h.quantile(0.5), 3u);
  EXPECT_EQ(h.count_in_range(2, 3), 4u);
  EXPECT_EQ(h.weighted_sum(), 1 + 1 + 2 + 3 + 3 + 3 + 10u);
}

TEST(Histogram, MergeAddsCounts) {
  du::Histogram a, b;
  a.add(1, 2);
  b.add(1, 3);
  b.add(5);
  a.merge(b);
  EXPECT_EQ(a.count_of(1), 5u);
  EXPECT_EQ(a.count_of(5), 1u);
  EXPECT_EQ(a.total_count(), 6u);
}

TEST(Table, AlignedTextAndCsv) {
  du::Table t({"name", "value"});
  t.start_row();
  t.cell("alpha");
  t.cell(1.5, 2);
  t.start_row();
  t.cell("b");
  t.cell(u64{42});
  std::string text = t.to_text("demo");
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1.50\nb,42\n");
}

TEST(Table, RejectsOverfullRow) {
  du::Table t({"only"});
  t.start_row();
  t.cell("x");
  EXPECT_THROW(t.cell("y"), dibella::Error);
}

TEST(FormatSi, Scales) {
  EXPECT_EQ(du::format_si(1'500'000.0, 1), "1.5M");
  EXPECT_EQ(du::format_si(2'000.0, 0), "2k");
  EXPECT_EQ(du::format_si(3.25, 2), "3.25");
}

TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog", "--k=17", "--nodes=8", "--verbose", "input.fq"};
  du::Args args(5, argv);
  EXPECT_EQ(args.get_i64("k", 0), 17);
  EXPECT_EQ(args.get_i64("nodes", 0), 8);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.fq");
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_double("k", 0.0), 17.0);
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, RejectUnknownNamesTheFirstKeyOutsideTheKnownSet) {
  const char* argv[] = {"prog", "--k=17", "--verbose", "--help", "--zeta=1", "input.fq"};
  du::Args args(6, argv);
  EXPECT_NO_THROW(args.reject_unknown({"k", "verbose", "help", "zeta", "unused"}));
  try {
    args.reject_unknown({"k", "verbose"});
    FAIL() << "expected UsageError";
  } catch (const du::UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown option --help");
  }
  EXPECT_THROW(args.reject_unknown({}), du::UsageError);
  // Positional arguments are not options.
  const char* bare[] = {"prog", "input.fq"};
  EXPECT_NO_THROW(du::Args(2, bare).reject_unknown({}));
}

TEST(Env, FallbacksAndParsing) {
  ::unsetenv("DIBELLA_TEST_ENV");
  EXPECT_EQ(du::env_i64("DIBELLA_TEST_ENV", 5), 5);
  ::setenv("DIBELLA_TEST_ENV", "12", 1);
  EXPECT_EQ(du::env_i64("DIBELLA_TEST_ENV", 5), 12);
  ::setenv("DIBELLA_TEST_ENV", "2.5", 1);
  EXPECT_DOUBLE_EQ(du::env_double("DIBELLA_TEST_ENV", 0.0), 2.5);
  ::setenv("DIBELLA_TEST_ENV", "abc", 1);
  EXPECT_EQ(du::env_i64("DIBELLA_TEST_ENV", 5), 5);
  EXPECT_EQ(du::env_string("DIBELLA_TEST_ENV", ""), "abc");
  ::unsetenv("DIBELLA_TEST_ENV");
}

// --- ChunkPool ---------------------------------------------------------------

namespace {

struct PoolWorker {
  u64 chunks = 0;
  std::set<std::thread::id> threads;
};

}  // namespace

TEST(ChunkPool, ConcatenatesInChunkOrderForEveryWorkerCount) {
  const std::size_t n_chunks = 97;
  std::vector<u64> want;
  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    du::ChunkPool<PoolWorker> pool(workers);
    std::vector<std::vector<u64>> out(n_chunks);
    const std::size_t used = pool.run(n_chunks, [&](PoolWorker& w, std::size_t c) {
      ++w.chunks;
      for (u64 i = 0; i < c % 5; ++i) out[c].push_back(c * 10 + i);
    });
    EXPECT_EQ(used, workers);
    u64 claimed = 0;
    for (const PoolWorker& w : pool.states()) claimed += w.chunks;
    EXPECT_EQ(claimed, n_chunks) << "workers=" << workers;
    const auto flat = du::concat_chunks(out);
    if (workers == 1) want = flat;
    EXPECT_EQ(flat, want) << "workers=" << workers;
  }
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
}

TEST(ChunkPool, RethrowsAWorkersErrorAfterJoining) {
  du::ChunkPool<PoolWorker> pool(4);
  std::atomic<u64> ran{0};
  EXPECT_THROW(pool.run(1000,
                        [&](PoolWorker&, std::size_t c) {
                          ++ran;
                          if (c == 10) throw std::runtime_error("chunk 10");
                        }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1u);
  // The pool stays usable.
  u64 total = 0;
  pool.run(3, [&](PoolWorker& w, std::size_t) { ++w.chunks; });
  for (const PoolWorker& w : pool.states()) total += w.chunks;
  EXPECT_EQ(total, 3u);
}

TEST(ChunkPool, OneWorkerRunsInlineOnTheCallingThread) {
  du::ChunkPool<PoolWorker> pool(1);
  std::vector<std::size_t> order;
  const std::size_t used = pool.run(6, [&](PoolWorker& w, std::size_t c) {
    w.threads.insert(std::this_thread::get_id());
    order.push_back(c);
  });
  EXPECT_EQ(used, 1u);
  EXPECT_EQ(pool.states()[0].threads, std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  // An error thrown inline propagates as is.
  EXPECT_THROW(pool.run(2, [](PoolWorker&, std::size_t) { throw std::logic_error("x"); }),
               std::logic_error);
}

TEST(ChunkPool, MoreWorkersThanChunksStartsOnlyWhatItNeeds) {
  du::ChunkPool<PoolWorker> pool(8);
  EXPECT_EQ(pool.workers(), 8u);
  std::vector<int> hits(3, 0);
  const std::size_t used = pool.run(3, [&](PoolWorker& w, std::size_t c) {
    w.threads.insert(std::this_thread::get_id());
    ++hits[c];
  });
  EXPECT_EQ(used, 3u);
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
  // Only the first three states can have run; a single chunk runs inline.
  for (std::size_t i = 3; i < pool.workers(); ++i) EXPECT_TRUE(pool.states()[i].threads.empty());
  EXPECT_EQ(pool.run(1, [](PoolWorker&, std::size_t) {}), 1u);
  EXPECT_EQ(pool.run(0, [](PoolWorker&, std::size_t) { FAIL(); }), 1u);
}
