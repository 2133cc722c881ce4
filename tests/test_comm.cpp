// Tests for the comm substrate: the threads-as-ranks World and its
// MPI-style collectives. These are the MPI-semantics contracts the pipeline
// depends on (see README "Communication substrate").

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
    comm.barrier();  // all ranks must be alive simultaneously to pass this
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
    comm.barrier();
    if (phase1.load() != P) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(World, ExceptionPropagatesAndSiblingsUnwind) {
  const int P = 4;
  dc::World world(P, /*barrier_timeout_seconds=*/30.0);
  EXPECT_THROW(
      world.run([&](dc::Communicator& comm) {
        if (comm.rank() == 2) throw dibella::Error("rank 2 exploded");
        // Other ranks block in a barrier; poisoning must wake them.
        comm.barrier();
        comm.barrier();
      }),
      dibella::Error);
  // The world is reusable after a failure.
  int ok = 0;
  world.run([&](dc::Communicator& comm) {
    comm.barrier();
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
    auto recv = comm.alltoallv(send);
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
    auto recv = comm.alltoallv(payload[static_cast<std::size_t>(me)]);
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
    std::vector<std::vector<u32>> send(P);
    for (int d = 0; d < P; ++d) send[static_cast<std::size_t>(d)] = {static_cast<u32>(comm.rank())};
    auto flat = comm.alltoallv_flat(send);
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) EXPECT_EQ(flat[static_cast<std::size_t>(s)], static_cast<u32>(s));
  });
}

TEST(Comm, AllgatherAndAllgatherv) {
  const int P = 6;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    auto all = comm.allgather(static_cast<u64>(comm.rank() * comm.rank()));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], static_cast<u64>(r * r));

    // allgatherv with rank-dependent sizes.
    std::vector<u32> mine(static_cast<std::size_t>(comm.rank()), static_cast<u32>(comm.rank()));
    auto cat = comm.allgatherv(mine);
    std::size_t expected_size = static_cast<std::size_t>(P * (P - 1) / 2);
    ASSERT_EQ(cat.size(), expected_size);
    std::size_t at = 0;
    for (int r = 0; r < P; ++r) {
      for (int i = 0; i < r; ++i) EXPECT_EQ(cat[at++], static_cast<u32>(r));
    }
  });
}

TEST(Comm, Reductions) {
  const int P = 9;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    u64 r = static_cast<u64>(comm.rank());
    EXPECT_EQ(comm.allreduce_sum(r), static_cast<u64>(P * (P - 1) / 2));
    EXPECT_EQ(comm.allreduce_max(r), static_cast<u64>(P - 1));
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(0.5), 0.5 * P);
    EXPECT_FALSE(comm.allreduce_and(comm.rank() != 3));
    EXPECT_TRUE(comm.allreduce_and(true));
    EXPECT_EQ(comm.exscan_sum(1), static_cast<u64>(comm.rank()));
    // exscan with rank-dependent values: rank r holds r, prefix = r(r-1)/2.
    EXPECT_EQ(comm.exscan_sum(r), static_cast<u64>(comm.rank() * (comm.rank() - 1) / 2));
  });
}

TEST(Comm, BroadcastAndGather) {
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    struct Payload {
      u64 a;
      double b;
    };
    Payload p{0, 0.0};
    if (comm.rank() == 2) p = {77, 2.5};
    Payload got = comm.broadcast(p, 2);
    EXPECT_EQ(got.a, 77u);
    EXPECT_DOUBLE_EQ(got.b, 2.5);

    std::vector<u32> mine = {static_cast<u32>(comm.rank() + 100)};
    auto rows = comm.gather(mine, 1);
    if (comm.rank() == 1) {
      ASSERT_EQ(rows.size(), static_cast<std::size_t>(P));
      for (int s = 0; s < P; ++s) {
        ASSERT_EQ(rows[static_cast<std::size_t>(s)].size(), 1u);
        EXPECT_EQ(rows[static_cast<std::size_t>(s)][0], static_cast<u32>(s + 100));
      }
    } else {
      EXPECT_TRUE(rows.empty());
    }
  });
}

TEST(Comm, ExchangeRecordsAlignedAndAccurate) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    comm.set_stage("phase_one");
    std::vector<std::vector<u64>> send(P);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(comm.rank() + 1), 7);
    }
    comm.alltoallv(send);
    comm.set_stage("phase_two");
    comm.barrier();
  });
  auto records = world.exchange_records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].seq, 0u);
    EXPECT_EQ(log[0].op, dc::CollectiveOp::kAlltoallv);
    EXPECT_EQ(log[0].stage, "phase_one");
    // Rank r sent (r+1) u64s to each of P-1 peers; the self-destination
    // payload never touches the wire and is excluded from the record.
    EXPECT_EQ(log[0].total_bytes(), static_cast<u64>((r + 1) * 8 * (P - 1)));
    EXPECT_EQ(log[0].bytes_to_peer[static_cast<std::size_t>(r)], 0u);
    EXPECT_EQ(log[1].op, dc::CollectiveOp::kBarrier);
    EXPECT_EQ(log[1].stage, "phase_two");
    EXPECT_GE(log[0].wall_seconds, 0.0);
  }
  world.clear_exchange_records();
  EXPECT_TRUE(world.exchange_records()[0].empty());
}

TEST(Comm, RecordSinkObservesCalls) {
  const int P = 2;
  dc::World world(P);
  std::atomic<int> observed{0};
  world.run([&](dc::Communicator& comm) {
    comm.set_record_sink([&](const dc::ExchangeRecord& rec) {
      if (rec.op == dc::CollectiveOp::kAllgather) ++observed;
    });
    comm.allgather(u64{1});
    comm.allgather(u64{2});
  });
  EXPECT_EQ(observed.load(), 2 * P);
}

TEST(Comm, ManySuccessiveCollectivesStayAligned) {
  // Stress: a mixed sequence of collectives with data-dependent sizes.
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    u64 acc = static_cast<u64>(comm.rank());
    for (int round = 0; round < 30; ++round) {
      acc = comm.allreduce_sum(acc) % 1000 + static_cast<u64>(comm.rank());
      std::vector<std::vector<u64>> send(P);
      for (int d = 0; d < P; ++d) {
        send[static_cast<std::size_t>(d)].assign((acc + static_cast<u64>(d)) % 5, acc);
      }
      auto recv = comm.alltoallv(send);
      u64 sum = 0;
      for (const auto& v : recv) sum += std::accumulate(v.begin(), v.end(), u64{0});
      acc = comm.allreduce_max(sum);
    }
    // All ranks converge to the same value because every input to acc is a
    // collective result (plus the rank term removed by the final max).
    auto all = comm.allgather(acc);
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
    auto recv = comm.alltoallv(send);
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
  // Regression: alltoallv used to record the self-destination payload in
  // bytes_to_peer while allgatherv/gather excluded it. Self bytes never
  // touch the wire, so every collective must record bytes_to_peer[self]==0.
  const int P = 4;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    std::vector<std::vector<u64>> send(P);
    for (int d = 0; d < P; ++d) send[static_cast<std::size_t>(d)].assign(3, 7);
    comm.alltoallv(send);
    comm.alltoallv_flat(send);
    comm.allgatherv(std::vector<u64>{1, 2});
    comm.broadcast(u64{9}, 1);
    comm.gather(std::vector<u64>{5}, 2);
    dc::Exchanger ex(comm);
    for (int d = 0; d < P; ++d) ex.post(d, send[static_cast<std::size_t>(d)]);
    ex.flush_async(/*done=*/true);
    ex.wait();
  });
  auto records = world.exchange_records();
  for (int r = 0; r < P; ++r) {
    for (const auto& rec : records[static_cast<std::size_t>(r)]) {
      EXPECT_EQ(rec.bytes_to_peer[static_cast<std::size_t>(r)], 0u)
          << dc::collective_op_name(rec.op) << " recorded self bytes on rank " << r;
    }
    // alltoallv: 3 u64s to each of P-1 wire peers.
    EXPECT_EQ(records[static_cast<std::size_t>(r)][0].total_bytes(),
              static_cast<u64>(3 * 8 * (P - 1)));
    // The Exchanger batch has the same wire footprint as the alltoallv.
    const auto& ex_rec = records[static_cast<std::size_t>(r)].back();
    EXPECT_EQ(ex_rec.op, dc::CollectiveOp::kExchange);
    EXPECT_EQ(ex_rec.total_bytes(), static_cast<u64>(3 * 8 * (P - 1)));
  }
}

TEST(Comm, AlltoallvFlatReportsSourceOffsets) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    // Rank r sends r+1 copies of its rank id to every destination.
    std::vector<std::vector<u32>> send(P);
    for (int d = 0; d < P; ++d) {
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(comm.rank() + 1),
                                               static_cast<u32>(comm.rank()));
    }
    std::vector<u64> offsets;
    auto flat = comm.alltoallv_flat(send, &offsets);
    ASSERT_EQ(offsets.size(), static_cast<std::size_t>(P) + 1);
    EXPECT_EQ(offsets[0], 0u);
    EXPECT_EQ(offsets.back(), flat.size());
    for (int s = 0; s < P; ++s) {
      u64 lo = offsets[static_cast<std::size_t>(s)];
      u64 hi = offsets[static_cast<std::size_t>(s) + 1];
      ASSERT_EQ(hi - lo, static_cast<u64>(s + 1)) << "from " << s;
      for (u64 i = lo; i < hi; ++i) EXPECT_EQ(flat[i], static_cast<u32>(s));
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
      got.append_to(items);
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

TEST(Exchanger, ChunkTrainsReassembleLargePayloads) {
  const int P = 3;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    // 64-byte chunks force multi-chunk trains with ragged tails.
    dc::Exchanger ex(comm, dc::Exchanger::Config{64});
    dibella::util::Xoshiro256 rng(static_cast<u64>(comm.rank()) + 41);
    std::vector<std::vector<u64>> sent(P);
    for (int d = 0; d < P; ++d) {
      sent[static_cast<std::size_t>(d)].resize(100 + rng.uniform_below(200));
      for (auto& v : sent[static_cast<std::size_t>(d)]) v = rng.next();
      ex.post(d, sent[static_cast<std::size_t>(d)]);
    }
    ex.flush_async(true);
    auto got = ex.wait();
    for (int s = 0; s < P; ++s) {
      // Regenerate the peer's stream to verify chunk reassembly.
      dibella::util::Xoshiro256 peer(static_cast<u64>(s) + 41);
      std::vector<u64> expect;
      for (int d = 0; d < P; ++d) {
        std::vector<u64> block(100 + peer.uniform_below(200));
        for (auto& v : block) v = peer.next();
        if (d == comm.rank()) expect = std::move(block);
      }
      std::vector<u64> items;
      got.append_from(s, items);
      EXPECT_EQ(items, expect);
    }
  });
}

TEST(Exchanger, OverlappedLoopMatchesBlockingLoop) {
  // The exchange loop helper must deliver, under either schedule and batch
  // for batch, exactly what the reference pack -> alltoallv_flat ->
  // allreduce loop delivers, including the ragged termination (ranks run
  // out of data at different times).
  const int P = 5;
  const int kBatches[] = {7, 2, 5, 1, 4};  // per-rank batch counts
  auto payload = [](int src, int batch, int dst) {
    return static_cast<u64>(src * 10000 + batch * 100 + dst);
  };

  // Reference: the collective loop on the blocking primitives.
  std::vector<std::vector<u64>> blocking_recv(P);
  {
    dc::World world(P);
    world.run([&](dc::Communicator& comm) {
      int me = comm.rank();
      int sent = 0;
      bool more = true;
      while (true) {
        std::vector<std::vector<u64>> send(P);
        if (more) {
          for (int d = 0; d < P; ++d) send[static_cast<std::size_t>(d)] = {payload(me, sent, d)};
          ++sent;
          more = sent < kBatches[me];
        }
        auto flat = comm.alltoallv_flat(send);
        auto& sink = blocking_recv[static_cast<std::size_t>(me)];
        sink.insert(sink.end(), flat.begin(), flat.end());
        if (comm.allreduce_and(!more)) break;
      }
    });
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
            batch.append_to(exchanged_recv[static_cast<std::size_t>(me)]);
          });
    });

    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(exchanged_recv[static_cast<std::size_t>(r)],
                blocking_recv[static_cast<std::size_t>(r)])
          << "rank " << r;
      // Same number of exchange rounds as the reference loop (max batches = 7).
      EXPECT_EQ(batches[static_cast<std::size_t>(r)], 7u);
    }
  }
}

TEST(Exchanger, RecordsHiddenWindowAndInterleavesWithCollectives) {
  const int P = 2;
  dc::World world(P);
  world.run([&](dc::Communicator& comm) {
    comm.set_stage("overlap_test");
    dc::Exchanger ex(comm);
    std::vector<u32> v{1, 2, 3};
    for (int d = 0; d < P; ++d) ex.post(d, v);
    ex.flush_async(true);
    // A blocking collective result computed while the batch is in flight
    // must coexist with the pending exchange (distinct epoch tags).
    EXPECT_EQ(comm.allreduce_sum(u64{1}), static_cast<u64>(P));
    auto got = ex.wait();
    std::vector<u32> items;
    got.append_to(items);
    ASSERT_EQ(items.size(), static_cast<std::size_t>(P) * 3);
  });
  auto records = world.exchange_records();
  for (int r = 0; r < P; ++r) {
    const auto& log = records[static_cast<std::size_t>(r)];
    // allgather (from allreduce) finishes before the exchange's wait().
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].op, dc::CollectiveOp::kAllgather);
    EXPECT_EQ(log[1].op, dc::CollectiveOp::kExchange);
    EXPECT_EQ(log[1].stage, "overlap_test");
    EXPECT_GE(log[1].hidden_wall_seconds, 0.0);
    EXPECT_GE(log[1].wall_seconds, 0.0);
  }
}

// --- collective misuse paths -------------------------------------------------

TEST(CommFailure, BarrierTimeoutAbortsRun) {
  // Rank 0 skips the second barrier entirely and leaves the region; the
  // stragglers' barrier must time out and abort instead of hanging.
  dc::World world(3, /*barrier_timeout_seconds=*/1.0);
  EXPECT_THROW(world.run([&](dc::Communicator& comm) {
                 comm.barrier();
                 if (comm.rank() != 0) comm.barrier();
               }),
               dibella::Error);
  // The world stays usable afterwards.
  int ok = 0;
  world.run([&](dc::Communicator& comm) {
    comm.barrier();
    if (comm.rank() == 0) ++ok;
  });
  EXPECT_EQ(ok, 1);
}

TEST(CommFailure, CompletedBarrierReturnsDespiteALaterAbort) {
  // The last rank to arrive completes the fence and fails right after it.
  // The rank already waiting in the fence must still return from it (the
  // barrier did complete) and see the failure only at its next collective.
  for (int trial = 0; trial < 20; ++trial) {
    dc::World world(2, /*barrier_timeout_seconds=*/5.0);
    bool passed_fence = false;
    EXPECT_THROW(world.run([&](dc::Communicator& comm) {
                   if (comm.rank() == 1) {
                     std::this_thread::sleep_for(std::chrono::milliseconds(2));
                     comm.barrier();
                     throw dibella::Error("rank 1 fails after the fence");
                   }
                   comm.barrier();
                   passed_fence = true;
                   comm.barrier();
                 }),
                 dibella::Error);
    EXPECT_TRUE(passed_fence) << "trial " << trial;
  }
}

TEST(CommFailure, MismatchedCollectiveKindsPoisonTheWorld) {
  // Rank 0 calls alltoallv while the others call allgatherv at the same
  // epoch: the mailbox tags disagree, which must abort the run with a
  // sequence-mismatch error, not mix payloads or deadlock.
  dc::World world(3, /*barrier_timeout_seconds=*/5.0);
  try {
    world.run([&](dc::Communicator& comm) {
      if (comm.rank() == 0) {
        std::vector<std::vector<u64>> send(3);
        comm.alltoallv(send);
      } else {
        comm.allgatherv(std::vector<u64>{1});
      }
    });
    FAIL() << "mismatched collectives must throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos) << e.what();
  }
}

TEST(CommFailure, MismatchedBarrierEpochPoisonsTheWorld) {
  // Rank 0 runs one collective before its barrier, the others none: all
  // ranks meet at the fence but disagree on the epoch — a mismatched
  // sequence that must abort, not silently desynchronize the record logs.
  dc::World world(2, /*barrier_timeout_seconds=*/1.5);
  try {
    world.run([&](dc::Communicator& comm) {
      if (comm.rank() == 0) comm.allgatherv(std::vector<u64>{});
      comm.barrier();
      if (comm.rank() == 1) comm.allgatherv(std::vector<u64>{});
    });
    FAIL() << "mismatched barrier epochs must throw";
  } catch (const dibella::Error& e) {
    EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos) << e.what();
  }
}
