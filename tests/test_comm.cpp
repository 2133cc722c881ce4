// Tests for the comm substrate: the threads-as-ranks World and the
// Exchanger rounds every payload and every synchronization travels. These
// are the MPI-semantics contracts the pipeline depends on (see README
// "Communication substrate").

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/exchanger.hpp"
#include "comm/world.hpp"
#include "util/random.hpp"

namespace dc = dibella::comm;
using dibella::u32;
using dibella::u64;
using dibella::u8;

namespace {

/// One Exchanger round, the irregular all-to-all every payload travels:
/// send[d] goes to rank d; returns recv where recv[s] came from rank s.
template <class T>
std::vector<std::vector<T>> exchange_round(dc::Communicator& comm,
                                           const std::vector<std::vector<T>>& send) {
  dc::Exchanger ex(comm);
  for (int d = 0; d < comm.size(); ++d) ex.post(d, send[static_cast<std::size_t>(d)]);
  ex.flush_async(/*done=*/true);
  const dc::RecvBatch batch = ex.wait();
  std::vector<std::vector<T>> recv(static_cast<std::size_t>(comm.size()));
  for (int s = 0; s < comm.size(); ++s) batch.append_from(s, recv[static_cast<std::size_t>(s)]);
  return recv;
}

/// An empty Exchanger round, the substrate's barrier: no rank's wait()
/// returns before every rank has flushed.
void empty_round(dc::Communicator& comm) {
  dc::Exchanger ex(comm);
  ex.flush_async(/*done=*/true);
  ex.wait();
}

/// Every rank's `v`, in rank order (the allgather pattern: one round in
/// which each rank sends the same payload to every rank).
template <class T>
std::vector<T> gather_all(dc::Communicator& comm, const std::vector<T>& v) {
  std::vector<T> out;
  for (const auto& part : exchange_round(
           comm, std::vector<std::vector<T>>(static_cast<std::size_t>(comm.size()), v))) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Run `fn` on every rank and return each rank's exchange records in
/// completion order, as its record sink saw them (the Communicator keeps
/// none).
std::vector<std::vector<dc::ExchangeRecord>> run_recording(
    dc::World& world, const std::function<void(dc::Communicator&)>& fn) {
  std::vector<std::vector<dc::ExchangeRecord>> records(static_cast<std::size_t>(world.size()));
  world.run([&](dc::Communicator& comm) {
    auto& mine = records[static_cast<std::size_t>(comm.rank())];
    comm.set_record_sink([&mine](const dc::ExchangeRecord& rec) { mine.push_back(rec); });
    fn(comm);
  });
  return records;
}

}  // namespace

TEST(World, SingleRankRuns) {
  dc::World world(1);
  int visits = 0;
  world.run([&](dc::Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(World, AllRanksRunConcurrently) {
  const int P = 8;
  dc::World world(P);
  std::atomic<int> concurrent{0}, peak{0};
  world.run([&](dc::Communicator& comm) {
    int now = ++concurrent;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    empty_round(comm);  // all ranks must be alive simultaneously to pass this
    --concurrent;
  });
  EXPECT_EQ(peak.load(), P);
}

TEST(World, BarrierOrdersPhases) {
  const int P = 6;
  dc::World world(P);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  world.run([&](dc::Communicator& comm) {
    ++phase1;
    empty_round(comm);
    if (phase1.load() != P) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(World, ExceptionPropagatesAndSiblingsUnwind) {
  const int P = 4;
  dc::World world(P, /*timeout_seconds=*/30.0);
  EXPECT_THROW(
      world.run([&](dc::Communicator& comm) {
        if (comm.rank() == 2) throw dibella::Error("rank 2 exploded");
        // Other ranks block in an empty round; poisoning must wake them.
        empty_round(comm);
        empty_round(comm);
      }),
      dibella::Error);
  // The world is reusable after a failure.
  int ok = 0;
  world.run([&](dc::Communicator& comm) {
    empty_round(comm);
    if (comm.rank() == 0) ++ok;
  });
  EXPECT_EQ(ok, 1);
}

TEST(Comm, AlltoallvDeliversExactPayloads) {
  const int P = 5;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    int me = comm.rank();
    std::vector<std::vector<u32>> send(P);
    for (int d = 0; d < P; ++d) {
      // Rank r sends d+1 values tagged with (src, dst).
      for (int i = 0; i <= d; ++i) {
        send[static_cast<std::size_t>(d)].push_back(
            static_cast<u32>(me * 1000 + d * 10 + i));
      }
    }
    auto recv = exchange_round(comm, send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      const auto& v = recv[static_cast<std::size_t>(s)];
      ASSERT_EQ(v.size(), static_cast<std::size_t>(me + 1)) << "from " << s;
      for (int i = 0; i <= me; ++i) {
        EXPECT_EQ(v[static_cast<std::size_t>(i)],
                  static_cast<u32>(s * 1000 + me * 10 + i));
      }
    }
  });
}

TEST(Comm, AlltoallvRandomizedMatchesReference) {
  const int P = 7;
  // Precompute what every rank sends: payload[src][dst] = vector<u64>.
  std::vector<std::vector<std::vector<u64>>> payload(
      P, std::vector<std::vector<u64>>(P));
  dibella::util::Xoshiro256 rng(99);
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      std::size_t n = rng.uniform_below(50);  // includes empty payloads
      for (std::size_t i = 0; i < n; ++i) payload[s][d].push_back(rng.next());
    }
  }
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    int me = comm.rank();
    auto recv = exchange_round(comm, payload[static_cast<std::size_t>(me)]);
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)],
                payload[static_cast<std::size_t>(s)][static_cast<std::size_t>(me)]);
    }
  });
}

TEST(Comm, AlltoallvFlatConcatenatesInRankOrder) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    dc::Exchanger ex(comm);
    for (int d = 0; d < P; ++d) {
      const u32 v = static_cast<u32>(comm.rank());
      ex.post(d, &v, 1);
    }
    ex.flush_async(/*done=*/true);
    std::vector<u32> flat;
    ex.wait().for_each_item<u32>([&](u32 v) { flat.push_back(v); });
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) EXPECT_EQ(flat[static_cast<std::size_t>(s)], static_cast<u32>(s));
  });
}

TEST(Comm, AllgatherAndAllgatherv) {
  const int P = 6;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    auto all = gather_all(comm, std::vector<u64>{static_cast<u64>(comm.rank() * comm.rank())});
    ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], static_cast<u64>(r * r));

    // Rank-dependent sizes, rank 0 sending nothing.
    std::vector<u32> mine(static_cast<std::size_t>(comm.rank()), static_cast<u32>(comm.rank()));
    auto cat = gather_all(comm, mine);
    std::size_t expected_size = static_cast<std::size_t>(P * (P - 1) / 2);
    ASSERT_EQ(cat.size(), expected_size);
    std::size_t at = 0;
    for (int r = 0; r < P; ++r) {
      for (int i = 0; i < r; ++i) EXPECT_EQ(cat[at++], static_cast<u32>(r));
    }
  });
}

TEST(Comm, Reductions) {
  // The one reduction the exchange provides itself is the stop vote: a
  // batch's all_done() is the AND of every sender's done bit. Sums, maxima
  // and prefix sums are local folds over one round's rank-ordered values.
  const int P = 9;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    const u64 r = static_cast<u64>(comm.rank());
    dc::Exchanger ex(comm);
    for (int d = 0; d < P; ++d) ex.post(d, &r, 1);
    ex.flush_async(/*done=*/comm.rank() != 3);
    const dc::RecvBatch batch = ex.wait();
    EXPECT_FALSE(batch.all_done());
    std::vector<u64> all;
    batch.for_each_item<u64>([&](u64 v) { all.push_back(v); });
    ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
    EXPECT_EQ(std::accumulate(all.begin(), all.end(), u64{0}), static_cast<u64>(P * (P - 1) / 2));
    EXPECT_EQ(*std::max_element(all.begin(), all.end()), static_cast<u64>(P - 1));
    // Exclusive prefix sum: the values of the lower ranks, rank r holds r.
    EXPECT_EQ(std::accumulate(all.begin(), all.begin() + comm.rank(), u64{0}),
              static_cast<u64>(comm.rank() * (comm.rank() - 1) / 2));

    ex.flush_async(/*done=*/true);
    const dc::RecvBatch last = ex.wait();
    EXPECT_TRUE(last.all_done());
    EXPECT_EQ(last.total_bytes(), 0u);
  });
}

TEST(Comm, BroadcastAndGather) {
  // One-sided rounds: only the root sends (broadcast), then everyone sends
  // to the root alone (gather). Every other pair carries an empty message.
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    struct Payload {
      u64 a;
      double b;
    };
    std::vector<std::vector<Payload>> bcast(P);
    if (comm.rank() == 2) {
      for (auto& v : bcast) v.push_back(Payload{77, 2.5});
    }
    auto got = exchange_round(comm, bcast);
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), s == 2 ? 1u : 0u) << "from " << s;
    }
    EXPECT_EQ(got[2][0].a, 77u);
    EXPECT_DOUBLE_EQ(got[2][0].b, 2.5);

    std::vector<std::vector<u32>> to_root(P);
    to_root[1] = {static_cast<u32>(comm.rank() + 100)};
    auto rows = exchange_round(comm, to_root);
    for (int s = 0; s < P; ++s) {
      const auto& row = rows[static_cast<std::size_t>(s)];
      if (comm.rank() == 1) {
        ASSERT_EQ(row.size(), 1u);
        EXPECT_EQ(row[0], static_cast<u32>(s + 100));
      } else {
        EXPECT_TRUE(row.empty());
      }
    }
  });
}

TEST(Comm, ExchangeRecordsAlignedAndAccurate) {
  const int P = 3;
  dc::World world(P);
  auto records = run_recording(world, [&](dc::Communicator& comm) {
    comm.set_stage("phase_one");
    std::vector<std::vector<u64>> send(P);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(comm.rank() + 1), 7);
    }
    exchange_round(comm, send);
    comm.set_stage("phase_two");
    empty_round(comm);
  });
  ASSERT_EQ(records.size(), static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].seq, 0u);
    EXPECT_EQ(log[0].stage, "phase_one");
    // Rank r sent (r+1) u64s to each of P-1 peers; the self-destination
    // payload never touches the wire and is excluded from the record.
    EXPECT_EQ(log[0].total_bytes(), static_cast<u64>((r + 1) * 8 * (P - 1)));
    EXPECT_EQ(log[0].bytes_to_peer[static_cast<std::size_t>(r)], 0u);
    EXPECT_EQ(log[1].seq, 1u);
    EXPECT_EQ(log[1].stage, "phase_two");
    EXPECT_EQ(log[1].total_bytes(), 0u);
    EXPECT_GE(log[0].wall_seconds, 0.0);
  }
  // The next region's records start afresh on every rank.
  records = run_recording(world, [](dc::Communicator& comm) { empty_round(comm); });
  for (const auto& log : records) {
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].seq, 0u);
  }
}

TEST(Comm, RecordSinkObservesCalls) {
  const int P = 2;
  dc::World world(P);
  std::atomic<int> records{0}, empty{0};
  world.run([&](dc::Communicator& comm) {
    comm.set_record_sink([&](const dc::ExchangeRecord& rec) {
      ++records;
      if (rec.total_bytes() == 0) ++empty;
    });
    gather_all(comm, std::vector<u64>{1});
    empty_round(comm);
    gather_all(comm, std::vector<u64>{2});
  });
  EXPECT_EQ(records.load(), 3 * P);
  EXPECT_EQ(empty.load(), P);
}

TEST(Comm, ManySuccessiveCollectivesStayAligned) {
  // Stress: exchange rounds with data-dependent sizes, interleaved with
  // empty rounds.
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    u64 acc = static_cast<u64>(comm.rank());
    for (int round = 0; round < 30; ++round) {
      const auto all = gather_all(comm, std::vector<u64>{acc});
      acc = std::accumulate(all.begin(), all.end(), u64{0}) % 1000 +
            static_cast<u64>(comm.rank());
      std::vector<std::vector<u64>> send(P);
      for (int d = 0; d < P; ++d) {
        send[static_cast<std::size_t>(d)].assign((acc + static_cast<u64>(d)) % 5, acc);
      }
      auto recv = exchange_round(comm, send);
      u64 sum = 0;
      for (const auto& v : recv) sum += std::accumulate(v.begin(), v.end(), u64{0});
      const auto sums = gather_all(comm, std::vector<u64>{sum});
      acc = *std::max_element(sums.begin(), sums.end());
      if (round % 7 == 0) empty_round(comm);
    }
    // All ranks converge to the same value because every input to acc is a
    // round's result (plus the rank term removed by the final max).
    auto all = gather_all(comm, std::vector<u64>{acc});
    for (u64 v : all) EXPECT_EQ(v, all[0]);
  });
}

TEST(Comm, LargePayloadIntegrity) {
  const int P = 2;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    std::vector<std::vector<u64>> send(P);
    dibella::util::Xoshiro256 rng(static_cast<u64>(comm.rank()) + 1);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)].resize(100'000);
      for (auto& v : send[static_cast<std::size_t>(d)]) v = rng.next();
    }
    auto recv = exchange_round(comm, send);
    // Regenerate the peer's stream to verify integrity.
    for (int s = 0; s < P; ++s) {
      dibella::util::Xoshiro256 peer(static_cast<u64>(s) + 1);
      std::vector<u64> expect;
      for (int d = 0; d < P; ++d) {
        for (int i = 0; i < 100'000; ++i) {
          u64 v = peer.next();
          if (d == comm.rank()) expect.push_back(v);
        }
      }
      EXPECT_EQ(recv[static_cast<std::size_t>(s)], expect);
    }
  });
}

// --- self-byte accounting ----------------------------------------------------

TEST(Comm, RecordsExcludeSelfBytesEverywhere) {
  // Self bytes never touch the wire, so every record — exchange rounds of
  // any shape, empty ones included — must have bytes_to_peer[self] == 0.
  const int P = 4;
  dc::World world(P);
  auto records = run_recording(world, [&](dc::Communicator& comm) {
    std::vector<std::vector<u64>> send(P);
    for (int d = 0; d < P; ++d) send[static_cast<std::size_t>(d)].assign(3, 7);
    exchange_round(comm, send);
    gather_all(comm, std::vector<u64>{1, 2});
    std::vector<std::vector<u64>> to_root(P);
    to_root[2] = {5};
    exchange_round(comm, to_root);
    empty_round(comm);
  });
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    ASSERT_EQ(log.size(), 4u);
    for (const auto& rec : log) {
      EXPECT_EQ(rec.bytes_to_peer[static_cast<std::size_t>(r)], 0u)
          << "record " << rec.seq << " recorded self bytes on rank " << r;
    }
    // 3 u64s to each of P-1 wire peers.
    EXPECT_EQ(log[0].total_bytes(), static_cast<u64>(3 * 8 * (P - 1)));
    EXPECT_EQ(log[1].total_bytes(), static_cast<u64>(2 * 8 * (P - 1)));
    EXPECT_EQ(log[2].total_bytes(), r == 2 ? 0u : 8u);
    EXPECT_EQ(log[3].total_bytes(), 0u);
  }
}

TEST(Comm, AlltoallvReportsSourceSizes) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    // Rank r sends r+1 copies of its rank id to every destination.
    dc::Exchanger ex(comm);
    for (int d = 0; d < P; ++d) {
      ex.post(d, std::vector<u32>(static_cast<std::size_t>(comm.rank() + 1),
                                  static_cast<u32>(comm.rank())));
    }
    ex.flush_async(/*done=*/true);
    const dc::RecvBatch batch = ex.wait();
    ASSERT_EQ(batch.from.size(), static_cast<std::size_t>(P));
    u64 total = 0;
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(batch.src_size_bytes(s), static_cast<u64>(s + 1) * sizeof(u32)) << "from " << s;
      std::vector<u32> got;
      batch.append_from(s, got);
      EXPECT_EQ(got, std::vector<u32>(static_cast<std::size_t>(s + 1), static_cast<u32>(s)));
      total += batch.src_size_bytes(s);
    }
    EXPECT_EQ(batch.total_bytes(), total);
    // for_each_item walks the sources in rank order: 0, 1, 1, 2, 2, 2.
    std::vector<u32> flat;
    EXPECT_EQ(batch.for_each_item<u32>([&](u32 v) { flat.push_back(v); }), total / sizeof(u32));
    std::size_t at = 0;
    for (int s = 0; s < P; ++s) {
      for (int i = 0; i <= s; ++i) EXPECT_EQ(flat[at++], static_cast<u32>(s));
    }
  });
}

// --- the nonblocking batched Exchanger ---------------------------------------

TEST(Exchanger, DeliversBatchesInSourceRankOrder) {
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    dc::Exchanger ex(comm);
    // Two batches; values tag (src, batch).
    for (int batch = 0; batch < 2; ++batch) {
      for (int d = 0; d < P; ++d) {
        std::vector<u32> payload(static_cast<std::size_t>(comm.rank() + 1),
                                 static_cast<u32>(comm.rank() * 10 + batch));
        ex.post(d, payload);
      }
      ex.flush_async(/*done=*/batch == 1);
      auto got = ex.wait();
      EXPECT_EQ(got.all_done(), batch == 1);
      std::vector<u32> items;
      got.for_each_item<u32>([&](u32 v) { items.push_back(v); });
      std::size_t at = 0;
      for (int s = 0; s < P; ++s) {
        // Source s's slice: s+1 copies of s*10+batch, in source-rank order.
        ASSERT_EQ(got.src_size_bytes(s), static_cast<u64>((s + 1) * sizeof(u32)));
        for (int i = 0; i <= s; ++i) {
          EXPECT_EQ(items[at++], static_cast<u32>(s * 10 + batch));
        }
      }
      EXPECT_EQ(at, items.size());
    }
  });
}

TEST(Exchanger, WholePayloadsRoundTripUnderBothSchedules) {
  // Each flush carries one message per (source, destination), whatever its
  // size: ragged payloads from empty to ~3 MiB, self included, arrive whole
  // and in source-rank order under either schedule.
  const int P = 3;
  const int kBatches = 3;
  // u64 items: 0 B, 8 B, 1 MiB, 1 MiB + 8 B, 3 MiB - 8 B, 3 MiB.
  const u64 kItems[] = {0, 1, 1u << 17, (1u << 17) + 1, (3u << 17) - 1, 3u << 17};
  auto items = [&](int src, int dst, int batch) {
    return kItems[static_cast<std::size_t>(src * 5 + dst * 3 + batch * 2 + src * dst) % 6];
  };
  auto value = [](int src, int dst, int batch, u64 i) {
    return static_cast<u64>(src) << 56 | static_cast<u64>(dst) << 48 |
           static_cast<u64>(batch) << 40 | i;
  };
  for (bool overlap : {true, false}) {
    SCOPED_TRACE(overlap ? "overlapped" : "depth 0");
    dc::World world(P);
    world.run([&](dc::Communicator& comm) {
      const int me = comm.rank();
      dc::Exchanger::Config cfg;
      cfg.overlap = overlap;
      dc::Exchanger ex(comm, cfg);
      int packed = 0;
      int consumed = 0;
      const u64 batches = dc::run_exchange(
          ex,
          [&] {
            for (int d = 0; d < P; ++d) {
              std::vector<u64> payload(items(me, d, packed));
              for (u64 i = 0; i < payload.size(); ++i) payload[i] = value(me, d, packed, i);
              ex.post(d, payload);
            }
            return ++packed < kBatches;
          },
          [&](const dc::RecvBatch& batch) {
            u64 total = 0;
            for (int s = 0; s < P; ++s) {
              const u64 n = items(s, me, consumed);
              ASSERT_EQ(batch.src_size_bytes(s), n * sizeof(u64)) << "from " << s;
              std::vector<u64> got;
              batch.append_from(s, got);
              for (u64 i = 0; i < n; ++i) {
                ASSERT_EQ(got[i], value(s, me, consumed, i)) << "from " << s << " item " << i;
              }
              total += n * sizeof(u64);
            }
            EXPECT_EQ(batch.total_bytes(), total);
            ++consumed;
          });
      EXPECT_EQ(batches, static_cast<u64>(kBatches));
      EXPECT_EQ(consumed, kBatches);
    });
  }
}

TEST(Exchanger, OverlappedLoopMatchesBlockingLoop) {
  // The exchange loop helper must deliver, under either schedule and batch
  // for batch, exactly the closed-form sequence below, including the ragged
  // termination (ranks run out of data at different times).
  const int P = 5;
  const int kBatches[] = {7, 2, 5, 1, 4};  // per-rank batch counts
  const int kRounds = 7;                   // max batches: every rank sees 7
  auto payload = [](int src, int batch, int dst) {
    return static_cast<u64>(src * 10000 + batch * 100 + dst);
  };

  // Oracle: round b carries payload(s, b, r) from every source s that still
  // had a batch b, in source-rank order.
  std::vector<std::vector<u64>> expected_recv(P);
  for (int r = 0; r < P; ++r) {
    for (int b = 0; b < kRounds; ++b) {
      for (int s = 0; s < P; ++s) {
        if (b < kBatches[s]) expected_recv[static_cast<std::size_t>(r)].push_back(payload(s, b, r));
      }
    }
  }

  for (bool overlap : {true, false}) {
    SCOPED_TRACE(overlap ? "overlapped" : "depth 0");
    std::vector<std::vector<u64>> exchanged_recv(P);
    std::vector<u64> batches(P, 0);
    dc::World world(P);
    world.run([&](dc::Communicator& comm) {
      int me = comm.rank();
      dc::Exchanger::Config cfg;
      cfg.overlap = overlap;
      dc::Exchanger ex(comm, cfg);
      int sent = 0;
      batches[static_cast<std::size_t>(me)] = dc::run_exchange(
          ex,
          [&] {
            // Depth 0 packs nothing while a batch is in flight.
            EXPECT_TRUE(overlap || !ex.in_flight());
            for (int d = 0; d < P; ++d) {
              u64 v = payload(me, sent, d);
              ex.post(d, &v, 1);
            }
            ++sent;
            return sent < kBatches[me];
          },
          [&](const dc::RecvBatch& batch) {
            auto& mine = exchanged_recv[static_cast<std::size_t>(me)];
            batch.for_each_item<u64>([&](u64 v) { mine.push_back(v); });
          });
    });

    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(exchanged_recv[static_cast<std::size_t>(r)],
                expected_recv[static_cast<std::size_t>(r)])
          << "rank " << r;
      EXPECT_EQ(batches[static_cast<std::size_t>(r)], static_cast<u64>(kRounds));
    }
  }
}

TEST(Exchanger, RecordsHiddenWindowAndInterleavesWithCollectives) {
  const int P = 2;
  dc::World world(P);
  auto records = run_recording(world, [&](dc::Communicator& comm) {
    comm.set_stage("overlap_test");
    dc::Exchanger ex(comm);
    std::vector<u32> v{1, 2, 3};
    for (int d = 0; d < P; ++d) ex.post(d, v);
    ex.flush_async(true);
    // An empty round on a second Exchanger while the batch is in flight
    // must coexist with the pending exchange (distinct epoch tags).
    empty_round(comm);
    auto got = ex.wait();
    std::vector<u32> items;
    got.for_each_item<u32>([&](u32 v) { items.push_back(v); });
    ASSERT_EQ(items.size(), static_cast<std::size_t>(P) * 3);
  });
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    // The empty round finishes before the exchange's wait().
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].total_bytes(), 0u);
    EXPECT_EQ(log[1].total_bytes(), static_cast<u64>(3 * sizeof(u32) * (P - 1)));
    EXPECT_EQ(log[1].stage, "overlap_test");
    EXPECT_GE(log[1].hidden_wall_seconds, 0.0);
    EXPECT_GE(log[1].wall_seconds, 0.0);
  }
}

// --- collective misuse paths -------------------------------------------------

TEST(CommFailure, BarrierTimeoutAbortsRun) {
  // Rank 0 skips the second empty round entirely and leaves the region; the
  // stragglers wait for its flush, which must time out and abort with a
  // mismatched-sequence error instead of hanging.
  dc::World world(3, /*timeout_seconds=*/1.0);
  try {
    world.run([&](dc::Communicator& comm) {
      empty_round(comm);
      if (comm.rank() != 0) empty_round(comm);
    });
    FAIL() << "mismatched exchange counts must throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatched collective sequences"),
              std::string::npos)
        << e.what();
  }
  // The world stays usable afterwards.
  int ok = 0;
  world.run([&](dc::Communicator& comm) {
    empty_round(comm);
    if (comm.rank() == 0) ++ok;
  });
  EXPECT_EQ(ok, 1);
}

TEST(CommFailure, CompletedBarrierReturnsDespiteALaterAbort) {
  // Rank 1 completes an empty round and fails right after it. Rank 0
  // flushed before rank 1's wait() and reaches its own wait() only after the
  // failure has poisoned the world; both messages of the round are already
  // in its mailboxes, so its wait() must still return (the round did
  // complete) and it sees the failure only at its next round. This is what
  // lets rank 0 mark a checkpoint whose payloads are all durable.
  for (int trial = 0; trial < 20; ++trial) {
    dc::World world(2, /*timeout_seconds=*/5.0);
    std::atomic<bool> failing{false};
    bool passed_round = false;
    EXPECT_THROW(world.run([&](dc::Communicator& comm) {
                   dc::Exchanger ex(comm);
                   ex.flush_async(/*done=*/true);
                   if (comm.rank() == 1) {
                     ex.wait();
                     failing = true;
                     throw dibella::Error("rank 1 fails after the round");
                   }
                   while (!failing) std::this_thread::yield();
                   // Let the throw reach World::run and poison the world.
                   std::this_thread::sleep_for(std::chrono::milliseconds(20));
                   ex.wait();
                   passed_round = true;
                   empty_round(comm);
                 }),
                 dibella::Error);
    EXPECT_TRUE(passed_round) << "trial " << trial;
  }
}
