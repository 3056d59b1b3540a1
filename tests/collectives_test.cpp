// Collective correctness tests, parameterized over rank counts (TEST_P):
// every collective is checked against a sequential oracle, and the ring
// AllReduce's wire traffic is checked against the paper's
// 2(N-1)·(M/N)-per-rank analysis (Table 2).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.h"
#include "comm/communicator.h"
#include "comm/fabric.h"
#include "common/rng.h"

namespace embrace::comm {
namespace {

class CollectivesP : public ::testing::TestWithParam<int> {
 protected:
  int n() const { return GetParam(); }
};

TEST_P(CollectivesP, BarrierCompletes) {
  std::atomic<int> before{0}, after{0};
  run_cluster(n(), [&](Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all arrivals.
    EXPECT_EQ(before.load(), n());
    comm.barrier();
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), n());
}

TEST_P(CollectivesP, BroadcastFromEveryRoot) {
  for (int root = 0; root < n(); ++root) {
    run_cluster(n(), [&](Communicator& comm) {
      std::vector<float> data(17, static_cast<float>(comm.rank()));
      if (comm.rank() == root) {
        for (size_t i = 0; i < data.size(); ++i) {
          data[i] = static_cast<float>(100 + i);
        }
      }
      comm.broadcast(data, root);
      for (size_t i = 0; i < data.size(); ++i) {
        ASSERT_FLOAT_EQ(data[i], static_cast<float>(100 + i))
            << "rank " << comm.rank() << " root " << root;
      }
    });
  }
}

TEST_P(CollectivesP, AllReduceSumMatchesOracle) {
  constexpr int64_t kLen = 37;  // deliberately not divisible by rank counts
  std::vector<std::vector<float>> inputs(static_cast<size_t>(n()));
  Rng rng(5);
  for (auto& v : inputs) {
    v.resize(kLen);
    for (auto& x : v) x = static_cast<float>(rng.next_int(-50, 50));
  }
  std::vector<float> expected(kLen, 0.0f);
  for (const auto& v : inputs) {
    for (int64_t i = 0; i < kLen; ++i) expected[i] += v[i];
  }
  run_cluster(n(), [&](Communicator& comm) {
    auto data = inputs[static_cast<size_t>(comm.rank())];
    comm.allreduce(data);
    for (int64_t i = 0; i < kLen; ++i) {
      ASSERT_FLOAT_EQ(data[i], expected[i]) << "rank " << comm.rank();
    }
  });
}

TEST_P(CollectivesP, AllReduceMax) {
  run_cluster(n(), [&](Communicator& comm) {
    std::vector<float> data{static_cast<float>(comm.rank()),
                            static_cast<float>(-comm.rank())};
    comm.allreduce(data, ReduceOp::kMax);
    EXPECT_FLOAT_EQ(data[0], static_cast<float>(n() - 1));
    EXPECT_FLOAT_EQ(data[1], 0.0f);
  });
}

TEST_P(CollectivesP, AllReduceTinyVector) {
  // Vector shorter than rank count: some ring chunks are empty.
  run_cluster(n(), [&](Communicator& comm) {
    std::vector<float> data{1.0f};
    comm.allreduce(data);
    EXPECT_FLOAT_EQ(data[0], static_cast<float>(n()));
  });
}

TEST_P(CollectivesP, ReduceScatterReturnsOwnReducedChunk) {
  constexpr int64_t kLen = 23;
  run_cluster(n(), [&](Communicator& comm) {
    std::vector<float> data(kLen);
    // input[i] = i + rank; reduced chunk value should be N*i + sum(ranks).
    for (int64_t i = 0; i < kLen; ++i) {
      data[i] = static_cast<float>(i + comm.rank());
    }
    auto chunk = comm.reduce_scatter(data);
    const auto [b, e] = comm.chunk_range(kLen, comm.rank());
    ASSERT_EQ(static_cast<int64_t>(chunk.size()), e - b);
    const float rank_sum = static_cast<float>(n() * (n() - 1)) / 2.0f;
    for (int64_t i = b; i < e; ++i) {
      ASSERT_FLOAT_EQ(chunk[i - b],
                      static_cast<float>(n()) * static_cast<float>(i) + rank_sum);
    }
  });
}

TEST_P(CollectivesP, AllGatherConcatenatesInRankOrder) {
  constexpr int64_t kBlock = 5;
  run_cluster(n(), [&](Communicator& comm) {
    std::vector<float> block(kBlock);
    for (int64_t i = 0; i < kBlock; ++i) {
      block[i] = static_cast<float>(comm.rank() * 1000 + i);
    }
    auto all = comm.allgather(block);
    ASSERT_EQ(static_cast<int64_t>(all.size()), kBlock * n());
    for (int r = 0; r < n(); ++r) {
      for (int64_t i = 0; i < kBlock; ++i) {
        ASSERT_FLOAT_EQ(all[r * kBlock + i],
                        static_cast<float>(r * 1000 + i));
      }
    }
  });
}

TEST_P(CollectivesP, AllGathervVariableSizes) {
  run_cluster(n(), [&](Communicator& comm) {
    // Rank r contributes r+1 bytes of value r.
    Bytes mine(static_cast<size_t>(comm.rank() + 1),
               static_cast<std::byte>(comm.rank()));
    auto all = comm.allgatherv(mine);
    ASSERT_EQ(static_cast<int>(all.size()), n());
    for (int r = 0; r < n(); ++r) {
      ASSERT_EQ(all[r].size(), static_cast<size_t>(r + 1));
      for (auto b : all[r]) ASSERT_EQ(b, static_cast<std::byte>(r));
    }
  });
}

TEST_P(CollectivesP, AllGathervSharedMatchesOwnedVariant) {
  run_cluster(n(), [&](Communicator& comm) {
    Bytes mine(static_cast<size_t>(comm.rank() + 1),
               static_cast<std::byte>(comm.rank()));
    auto all = comm.allgatherv_shared(std::move(mine));
    ASSERT_EQ(static_cast<int>(all.size()), n());
    for (int r = 0; r < n(); ++r) {
      ASSERT_TRUE(all[r] != nullptr);
      ASSERT_EQ(all[r]->size(), static_cast<size_t>(r + 1));
      for (auto b : *all[r]) ASSERT_EQ(b, static_cast<std::byte>(r));
    }
  });
}

TEST_P(CollectivesP, AlltoAllTransposesChunks) {
  constexpr int64_t kChunk = 3;
  run_cluster(n(), [&](Communicator& comm) {
    // send[dst*kChunk + j] encodes (me, dst, j).
    std::vector<float> send(static_cast<size_t>(kChunk) * n());
    for (int dst = 0; dst < n(); ++dst) {
      for (int64_t j = 0; j < kChunk; ++j) {
        send[dst * kChunk + j] =
            static_cast<float>(comm.rank() * 10000 + dst * 100 + j);
      }
    }
    auto recv = comm.alltoall(send, kChunk);
    for (int src = 0; src < n(); ++src) {
      for (int64_t j = 0; j < kChunk; ++j) {
        ASSERT_FLOAT_EQ(recv[src * kChunk + j],
                        static_cast<float>(src * 10000 + comm.rank() * 100 + j));
      }
    }
  });
}

TEST_P(CollectivesP, AlltoAllvVariablePayloads) {
  run_cluster(n(), [&](Communicator& comm) {
    std::vector<Bytes> send(static_cast<size_t>(n()));
    for (int dst = 0; dst < n(); ++dst) {
      // Size encodes the pair (me, dst) uniquely.
      send[dst] = Bytes(static_cast<size_t>(comm.rank() * n() + dst + 1),
                        static_cast<std::byte>(comm.rank()));
    }
    auto recv = comm.alltoallv(std::move(send));
    for (int src = 0; src < n(); ++src) {
      ASSERT_EQ(recv[src].size(),
                static_cast<size_t>(src * n() + comm.rank() + 1));
      for (auto b : recv[src]) ASSERT_EQ(b, static_cast<std::byte>(src));
    }
  });
}

TEST_P(CollectivesP, ChannelsDoNotCrossTalk) {
  // Two channels driven by concurrent threads per rank must not interfere
  // (the EmbRace dense/sparse stream split relies on this). Note: as with
  // real NCCL communicators, each channel's collectives must be issued in
  // the same order on every rank, but the two channels may make progress
  // in any interleaving — hence one thread per channel.
  run_cluster(n(), [&](Communicator& comm) {
    Communicator dense = comm.channel(1);
    Communicator sparse = comm.channel(2);
    std::vector<float> a(11, 1.0f);
    std::vector<float> b(11, 2.0f);
    std::thread dense_thread([&] {
      for (int i = 0; i < 5; ++i) dense.allreduce(a);
    });
    std::thread sparse_thread([&] {
      for (int i = 0; i < 5; ++i) sparse.allreduce(b);
    });
    dense_thread.join();
    sparse_thread.join();
    const double nn = n();
    for (float v : a) ASSERT_FLOAT_EQ(v, static_cast<float>(std::pow(nn, 5)));
    for (float v : b) {
      ASSERT_FLOAT_EQ(v, static_cast<float>(2.0 * std::pow(nn, 5)));
    }
  });
}

TEST_P(CollectivesP, RepeatedCollectivesKeepTagDiscipline) {
  run_cluster(n(), [&](Communicator& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<float> data(7, static_cast<float>(iter));
      comm.allreduce(data);
      for (float v : data) {
        ASSERT_FLOAT_EQ(v, static_cast<float>(iter * n()));
      }
    }
  });
}


TEST_P(CollectivesP, GathervCollectsAtRoot) {
  run_cluster(n(), [&](Communicator& comm) {
    Bytes mine(static_cast<size_t>(comm.rank() + 1),
               static_cast<std::byte>(comm.rank()));
    auto all = comm.gatherv(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(static_cast<int>(all.size()), n());
      for (int r = 0; r < n(); ++r) {
        ASSERT_EQ(all[r].size(), static_cast<size_t>(r + 1));
      }
    } else {
      ASSERT_TRUE(all.empty());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankSweep, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(CollectivesTraffic, RingAllReduceMatchesAnalyticVolume) {
  // Table 2: ring AllReduce moves 2(N-1) chunks of M/N floats per rank.
  // Every ring step is one message, an empty block included, so the
  // per-rank message count does not depend on the length. Over its N-1
  // steps the reduce-scatter half sends every block but the rank's own,
  // and the allgather half forwards every block but the next rank's.
  // AllGather ships the rank's block to each of the N-1 peers.
  constexpr int kN = 4;
  constexpr int64_t kF = sizeof(float);
  // 1024 splits into exact chunks; 3 < N leaves block 0 empty; 0 leaves
  // every block empty.
  for (const int64_t len : {int64_t{1024}, int64_t{3}, int64_t{0}}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const auto block = [&](int r) {
      return len * (r + 1) / kN - len * r / kN;
    };
    Fabric fabric(kN);
    const auto expect_sent = [&](const char* what, int64_t messages,
                                 const auto& floats_from) {
      SCOPED_TRACE(what);
      for (int r = 0; r < kN; ++r) {
        EXPECT_EQ(fabric.traffic_from(r).bytes, floats_from(r) * kF);
        EXPECT_EQ(fabric.traffic_from(r).messages, messages);
      }
      fabric.reset_traffic();
    };
    run_cluster(fabric, [&](Communicator& comm) {
      std::vector<float> data(static_cast<size_t>(len), 1.0f);
      comm.allreduce(data);
    });
    expect_sent("allreduce", 2 * (kN - 1), [&](int r) {
      return (len - block(r)) + (len - block((r + 1) % kN));
    });
    run_cluster(fabric, [&](Communicator& comm) {
      std::vector<float> data(static_cast<size_t>(len), 1.0f);
      (void)comm.reduce_scatter(data);
    });
    expect_sent("reduce_scatter", kN - 1,
                [&](int r) { return len - block(r); });
    run_cluster(fabric, [&](Communicator& comm) {
      const std::vector<float> mine(static_cast<size_t>(len), 1.0f);
      (void)comm.allgather(mine);
    });
    expect_sent("allgather", kN - 1, [&](int) { return (kN - 1) * len; });
  }
}

TEST(CollectivesTraffic, AllGathervMatchesAnalyticVolume) {
  // Table 2: AllGather ships the full payload to each of N-1 peers.
  constexpr int kN = 4;
  constexpr size_t kBytes = 1000;
  Fabric fabric(kN);
  run_cluster(fabric, [&](Communicator& comm) {
    Bytes mine(kBytes);
    (void)comm.allgatherv(mine);
  });
  for (int r = 0; r < kN; ++r) {
    EXPECT_EQ(fabric.traffic_from(r).bytes,
              static_cast<int64_t>((kN - 1) * kBytes));
  }
}

TEST(CollectivesTraffic, AlltoAllMatchesAnalyticVolume) {
  // Table 2: AlltoAll exchanges one chunk with each of N-1 peers
  // (the self-chunk stays local).
  constexpr int kN = 4;
  constexpr int64_t kChunk = 250;
  Fabric fabric(kN);
  run_cluster(fabric, [&](Communicator& comm) {
    std::vector<float> send(static_cast<size_t>(kChunk) * kN, 1.0f);
    (void)comm.alltoall(send, kChunk);
  });
  for (int r = 0; r < kN; ++r) {
    EXPECT_EQ(fabric.traffic_from(r).bytes,
              static_cast<int64_t>((kN - 1) * kChunk * sizeof(float)));
    EXPECT_EQ(fabric.traffic_from(r).messages, kN - 1);
  }
}

TEST(CollectivesPool, RingAllReduceReusesWireBuffers) {
  // After a warmup round, every ring step's send buffer must come from the
  // free lists — the allocation-lean property the hotpath bench guards.
  constexpr int kN = 4;
  Fabric fabric(kN);
  run_cluster(fabric, [&](Communicator& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      std::vector<float> data(4096, 1.0f);
      comm.allreduce(data);
    }
  });
  int64_t hits = 0, misses = 0;
  for (int r = 0; r < kN; ++r) {
    const auto s = fabric.pool(r).stats();
    hits += s.hits;
    misses += s.misses;
  }
  EXPECT_GE(hits, 2 * misses)
      << "pool hits " << hits << " vs misses " << misses;
}

TEST(ChunkRange, MatchesNaiveFormulaAtModerateSizes) {
  for (const int n : {1, 2, 5, 8}) {
    Fabric f(n);
    Communicator comm(f, 0);
    for (const int64_t total :
         {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{37}, int64_t{65536}}) {
      for (int k = 0; k < n; ++k) {
        const auto [b, e] = comm.chunk_range(total, k);
        EXPECT_EQ(b, total * k / n) << "n=" << n << " k=" << k;
        EXPECT_EQ(e, total * (k + 1) / n) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(ChunkRange, ExtremeSizesDoNotOverflow) {
  // total * (k+1) overflows int64 for totals near the type's limit; the
  // division-first form must still produce an exact contiguous partition.
  for (const int n : {1, 3, 7, 64, 255}) {
    Fabric f(n);
    Communicator comm(f, 0);
    for (const int64_t total : {std::numeric_limits<int64_t>::max(),
                                std::numeric_limits<int64_t>::max() - 7,
                                int64_t{1} << 62}) {
      int64_t prev_end = 0;
      for (int k = 0; k < n; ++k) {
        const auto [b, e] = comm.chunk_range(total, k);
        EXPECT_EQ(b, prev_end) << "gap/overlap at n=" << n << " k=" << k;
        EXPECT_LE(b, e);
        prev_end = e;
      }
      EXPECT_EQ(prev_end, total) << "partition must cover total at n=" << n;
    }
  }
}

}  // namespace
}  // namespace embrace::comm
