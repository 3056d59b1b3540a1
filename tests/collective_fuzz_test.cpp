// Randomized property tests (fuzz-style) for the collective runtime:
// random rank counts, payload sizes (including empty), and values, all
// checked against sequential oracles; plus a mixed-collective soak run
// that exercises tag discipline across many operations, and jittered
// variants that perturb thread timing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <string>

#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "comm/codec.h"
#include "comm/sparse_collectives.h"
#include "common/rng.h"
#include "sparse/algo_picker.h"

namespace embrace::comm {
namespace {

class CollectiveFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return static_cast<uint64_t>(GetParam()) * 7919 + 3; }
};

TEST_P(CollectiveFuzz, AllReduceRandomShapes) {
  Rng rng(seed());
  const int ranks = static_cast<int>(rng.next_int(1, 6));
  const int64_t len = rng.next_int(0, 300);
  std::vector<std::vector<float>> inputs(static_cast<size_t>(ranks));
  std::vector<float> expected(static_cast<size_t>(len), 0.0f);
  for (auto& v : inputs) {
    v.resize(static_cast<size_t>(len));
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(rng.next_int(-100, 100));
      expected[i] += v[i];
    }
  }
  run_cluster(ranks, [&](Communicator& comm) {
    auto data = inputs[static_cast<size_t>(comm.rank())];
    comm.allreduce(data);
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_FLOAT_EQ(data[i], expected[i]);
    }
  });
}

TEST_P(CollectiveFuzz, AllgathervRandomPayloads) {
  Rng rng(seed() + 1);
  const int ranks = static_cast<int>(rng.next_int(1, 6));
  std::vector<Bytes> payloads(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    const int64_t sz = rng.next_int(0, 500);
    payloads[static_cast<size_t>(r)] =
        Bytes(static_cast<size_t>(sz), static_cast<std::byte>(r + 1));
  }
  run_cluster(ranks, [&](Communicator& comm) {
    auto all = comm.allgatherv(payloads[static_cast<size_t>(comm.rank())]);
    ASSERT_EQ(static_cast<int>(all.size()), ranks);
    for (int r = 0; r < ranks; ++r) {
      ASSERT_EQ(all[r], payloads[static_cast<size_t>(r)]);
    }
  });
}

TEST_P(CollectiveFuzz, AlltoAllvRandomMatrix) {
  Rng rng(seed() + 2);
  const int ranks = static_cast<int>(rng.next_int(1, 5));
  // payload[src][dst]
  std::vector<std::vector<Bytes>> matrix(static_cast<size_t>(ranks));
  for (int src = 0; src < ranks; ++src) {
    matrix[static_cast<size_t>(src)].resize(static_cast<size_t>(ranks));
    for (int dst = 0; dst < ranks; ++dst) {
      const int64_t sz = rng.next_int(0, 200);
      Bytes b(static_cast<size_t>(sz));
      for (auto& x : b) {
        x = static_cast<std::byte>(rng.next_below(256));
      }
      matrix[static_cast<size_t>(src)][static_cast<size_t>(dst)] = b;
    }
  }
  run_cluster(ranks, [&](Communicator& comm) {
    auto send = matrix[static_cast<size_t>(comm.rank())];
    auto recv = comm.alltoallv(std::move(send));
    for (int src = 0; src < ranks; ++src) {
      ASSERT_EQ(recv[static_cast<size_t>(src)],
                matrix[static_cast<size_t>(src)]
                      [static_cast<size_t>(comm.rank())]);
    }
  });
}

TEST_P(CollectiveFuzz, SparseAllgatherRandomGradients) {
  Rng rng(seed() + 3);
  const int ranks = static_cast<int>(rng.next_int(1, 5));
  const int64_t vocab = rng.next_int(5, 60);
  const int64_t dim = rng.next_int(1, 8);
  std::vector<SparseRows> grads;
  Tensor oracle({vocab, dim});
  for (int r = 0; r < ranks; ++r) {
    const int64_t nnz = rng.next_int(0, 20);
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < nnz; ++i) ids.push_back(rng.next_int(0, vocab - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 17);
    SparseRows g(vocab, ids, Tensor::randn({nnz, dim}, vr));
    g.add_to_dense(oracle);
    grads.push_back(std::move(g));
  }
  run_cluster(ranks, [&](Communicator& comm) {
    SparseRows sum =
        sparse_allgather(comm, grads[static_cast<size_t>(comm.rank())]);
    ASSERT_LT(sum.to_dense().max_abs_diff(oracle), 1e-4f);
  });
}

TEST_P(CollectiveFuzz, MixedCollectiveSoakKeepsTagDiscipline) {
  // A random program of collectives executed identically on all ranks;
  // every operation's result is checked against its oracle.
  Rng program_rng(seed() + 4);
  const int ranks = static_cast<int>(program_rng.next_int(2, 5));
  constexpr int kOps = 25;
  std::vector<int> program;
  for (int i = 0; i < kOps; ++i) {
    program.push_back(static_cast<int>(program_rng.next_int(0, 3)));
  }
  run_cluster(ranks, [&](Communicator& comm) {
    for (int i = 0; i < kOps; ++i) {
      const float fi = static_cast<float>(i);
      switch (program[static_cast<size_t>(i)]) {
        case 0: {
          std::vector<float> v(7, fi + comm.rank());
          comm.allreduce(v);
          const float rank_sum =
              static_cast<float>(ranks * (ranks - 1)) / 2.0f;
          for (float x : v) ASSERT_FLOAT_EQ(x, fi * ranks + rank_sum);
          break;
        }
        case 1: {
          std::vector<float> v{fi};
          comm.broadcast(v, i % ranks);
          ASSERT_FLOAT_EQ(v[0], fi);
          break;
        }
        case 2: {
          comm.barrier();
          break;
        }
        case 3: {
          std::vector<float> block{static_cast<float>(comm.rank()), fi};
          auto all = comm.allgather(block);
          for (int r = 0; r < ranks; ++r) {
            ASSERT_FLOAT_EQ(all[2 * r], static_cast<float>(r));
            ASSERT_FLOAT_EQ(all[2 * r + 1], fi);
          }
          break;
        }
      }
    }
  });
}

TEST_P(CollectiveFuzz, AllReduceCorrectUnderJitter) {
  Rng rng(seed() + 5);
  const int ranks = static_cast<int>(rng.next_int(2, 4));
  Fabric fabric(ranks);
  FaultConfig jitter;
  jitter.delay_max_us = 80;
  fabric.set_fault_config(jitter, seed());
  run_cluster(fabric, [&](Communicator& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      std::vector<float> v(11, static_cast<float>(comm.rank() + iter));
      comm.allreduce(v);
      const float expected =
          static_cast<float>(ranks * (ranks - 1)) / 2.0f +
          static_cast<float>(iter * ranks);
      for (float x : v) ASSERT_FLOAT_EQ(x, expected);
    }
  });
}

// --- fault-injected variants (DESIGN.md §8) ---
//
// Under recoverable faults every collective must still produce the exact
// oracle result: drops are recovered via the fabric's retransmission path,
// duplicates are deduplicated by envelope id, reorder/delay only perturb
// timing. A generous recv deadline is armed as an in-test watchdog so a
// retry bug surfaces as a typed TimeoutError, never as a hang (ctest's
// per-test TIMEOUT is the backstop of last resort).

FaultConfig chaos_config() {
  FaultConfig cfg;
  cfg.drop_prob = 0.2;
  cfg.dup_prob = 0.2;
  cfg.reorder_prob = 0.2;
  cfg.delay_max_us = 50;
  cfg.recoverable = true;
  return cfg;
}

TEST_P(CollectiveFuzz, MixedCollectivesCorrectUnderRecoverableFaults) {
  Rng program_rng(seed() + 6);
  const int ranks = static_cast<int>(program_rng.next_int(2, 5));
  constexpr int kOps = 15;
  std::vector<int> program;
  for (int i = 0; i < kOps; ++i) {
    program.push_back(static_cast<int>(program_rng.next_int(0, 4)));
  }
  Fabric fabric(ranks);
  fabric.set_fault_config(chaos_config(), seed());
  fabric.set_recv_timeout(std::chrono::seconds(20));
  run_cluster(fabric, [&](Communicator& comm) {
    for (int i = 0; i < kOps; ++i) {
      const float fi = static_cast<float>(i);
      switch (program[static_cast<size_t>(i)]) {
        case 0: {
          std::vector<float> v(7, fi + comm.rank());
          comm.allreduce(v);
          const float rank_sum =
              static_cast<float>(ranks * (ranks - 1)) / 2.0f;
          for (float x : v) ASSERT_FLOAT_EQ(x, fi * ranks + rank_sum);
          break;
        }
        case 1: {
          std::vector<float> v{fi};
          comm.broadcast(v, i % ranks);
          ASSERT_FLOAT_EQ(v[0], fi);
          break;
        }
        case 2: {
          comm.barrier();
          break;
        }
        case 3: {
          std::vector<float> block{static_cast<float>(comm.rank()), fi};
          auto all = comm.allgather(block);
          for (int r = 0; r < ranks; ++r) {
            ASSERT_FLOAT_EQ(all[2 * r], static_cast<float>(r));
            ASSERT_FLOAT_EQ(all[2 * r + 1], fi);
          }
          break;
        }
        case 4: {
          auto all = comm.allgatherv(
              Bytes(static_cast<size_t>(comm.rank() + i % 3),
                    static_cast<std::byte>(comm.rank() + 1)));
          for (int r = 0; r < ranks; ++r) {
            ASSERT_EQ(all[static_cast<size_t>(r)],
                      Bytes(static_cast<size_t>(r + i % 3),
                            static_cast<std::byte>(r + 1)));
          }
          break;
        }
      }
    }
  });
}

TEST_P(CollectiveFuzz, AlltoAllvCorrectUnderRecoverableFaults) {
  Rng rng(seed() + 7);
  const int ranks = static_cast<int>(rng.next_int(2, 5));
  std::vector<std::vector<Bytes>> matrix(static_cast<size_t>(ranks));
  for (int src = 0; src < ranks; ++src) {
    matrix[static_cast<size_t>(src)].resize(static_cast<size_t>(ranks));
    for (int dst = 0; dst < ranks; ++dst) {
      Bytes b(static_cast<size_t>(rng.next_int(0, 100)));
      for (auto& x : b) x = static_cast<std::byte>(rng.next_below(256));
      matrix[static_cast<size_t>(src)][static_cast<size_t>(dst)] = b;
    }
  }
  Fabric fabric(ranks);
  fabric.set_fault_config(chaos_config(), seed() + 1);
  fabric.set_recv_timeout(std::chrono::seconds(20));
  run_cluster(fabric, [&](Communicator& comm) {
    for (int iter = 0; iter < 3; ++iter) {
      auto send = matrix[static_cast<size_t>(comm.rank())];
      auto recv = comm.alltoallv(std::move(send));
      for (int src = 0; src < ranks; ++src) {
        ASSERT_EQ(recv[static_cast<size_t>(src)],
                  matrix[static_cast<size_t>(src)]
                        [static_cast<size_t>(comm.rank())]);
      }
    }
  });
}

TEST_P(CollectiveFuzz, SparseAllgatherCorrectUnderRecoverableFaults) {
  Rng rng(seed() + 8);
  const int ranks = static_cast<int>(rng.next_int(2, 4));
  const int64_t vocab = rng.next_int(5, 40);
  const int64_t dim = rng.next_int(1, 6);
  std::vector<SparseRows> grads;
  Tensor oracle({vocab, dim});
  for (int r = 0; r < ranks; ++r) {
    const int64_t nnz = rng.next_int(0, 15);
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < nnz; ++i) ids.push_back(rng.next_int(0, vocab - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 29);
    SparseRows g(vocab, ids, Tensor::randn({nnz, dim}, vr));
    g.add_to_dense(oracle);
    grads.push_back(std::move(g));
  }
  Fabric fabric(ranks);
  fabric.set_fault_config(chaos_config(), seed() + 2);
  fabric.set_recv_timeout(std::chrono::seconds(20));
  run_cluster(fabric, [&](Communicator& comm) {
    SparseRows sum =
        sparse_allgather(comm, grads[static_cast<size_t>(comm.rank())]);
    ASSERT_LT(sum.to_dense().max_abs_diff(oracle), 1e-4f);
  });
}

// The sparse AllReduce variants (DESIGN.md §12) under drop/duplicate/
// reorder chaos: each must still land bitwise-retransmitted payloads and
// produce the oracle sum — a fault may cost time, never correctness.
TEST_P(CollectiveFuzz, SparseAllreduceVariantsCorrectUnderRecoverableFaults) {
  Rng rng(seed() + 9);
  const int ranks = static_cast<int>(rng.next_int(2, 5));  // incl. non-pow2
  const int64_t vocab = rng.next_int(5, 40);
  const int64_t dim = rng.next_int(1, 6);
  std::vector<SparseRows> grads;
  Tensor oracle({vocab, dim});
  for (int r = 0; r < ranks; ++r) {
    const int64_t nnz = rng.next_int(0, 15);
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < nnz; ++i) ids.push_back(rng.next_int(0, vocab - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 31);
    SparseRows g(vocab, ids, Tensor::randn({nnz, dim}, vr));
    g.add_to_dense(oracle);
    grads.push_back(std::move(g));
  }
  int algo_seed = 0;
  for (SparseAlgoKind algo : {SparseAlgoKind::kRecursiveDoubling,
                              SparseAlgoKind::kDenseRing}) {
    Fabric fabric(ranks);
    fabric.set_fault_config(chaos_config(), seed() + 3 +
                                                static_cast<uint64_t>(algo_seed++));
    fabric.set_recv_timeout(std::chrono::seconds(20));
    run_cluster(fabric, [&](Communicator& comm) {
      SparseRows sum = sparse_allreduce(
          comm, grads[static_cast<size_t>(comm.rank())], algo,
          /*chunk_bytes=*/algo == SparseAlgoKind::kDenseRing ? 64 : 0);
      ASSERT_LT(sum.to_dense().max_abs_diff(oracle), 1e-4f)
          << sparse_algo_name(algo);
    });
  }
}

// A dead link under the new variants must surface as the same typed
// TimeoutError as the primitive collectives — typed error or correct
// result, never silent corruption or a hang.
TEST(CollectiveFaults, SparseAllreduceDeadLinkSurfacesAsTypedTimeout) {
  for (SparseAlgoKind algo : {SparseAlgoKind::kRecursiveDoubling,
                              SparseAlgoKind::kDenseRing}) {
    Fabric fabric(2);
    FaultConfig dead;
    dead.drop_prob = 1.0;
    dead.recoverable = false;
    fabric.set_link_faults(0, 1, dead);
    fabric.set_recv_timeout(std::chrono::milliseconds(200));
    std::vector<std::string> errors(2);
    std::vector<std::pair<int, int>> edges(2, {-1, -1});
    const auto t0 = std::chrono::steady_clock::now();
    run_cluster(fabric, [&](Communicator& comm) {
      Rng vr(7);
      SparseRows mine(8, {1, 4}, Tensor::randn({2, 3}, vr));
      try {
        sparse_allreduce(comm, mine, algo);
      } catch (const TimeoutError& e) {
        errors[static_cast<size_t>(comm.rank())] = e.what();
        edges[static_cast<size_t>(comm.rank())] = {e.src(), e.dst()};
      }
    });
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
    ASSERT_FALSE(errors[1].empty())
        << sparse_algo_name(algo) << ": rank 1 must time out";
    EXPECT_EQ(edges[1], (std::pair<int, int>{0, 1})) << sparse_algo_name(algo);
  }
}

// Split-brain guard: the picker's inputs are rank-agreeable by
// construction (allreduced density, broadcast cost constants), so every
// rank must arrive at the same (algo, chunk, cost) decision — a rank pair
// disagreeing on the wire format would deadlock the collective.
TEST_P(CollectiveFuzz, PickerDecisionIsIdenticalAcrossRanks) {
  Rng rng(seed() + 10);
  const int ranks = static_cast<int>(rng.next_int(2, 6));
  const int64_t vocab = rng.next_int(64, 4096);
  const int64_t dim = rng.next_int(1, 64);
  // Costs: arbitrary but identical on every rank, as the trainer derives
  // them from the shared config.
  sparse::CostParams params = sparse::CostParams::from_simnet_defaults();
  params.link.alpha_us = rng.next_double(1.0, 500.0);
  params.link.bytes_per_us = rng.next_double(100.0, 20000.0);
  // Each rank sees a different local density; agreement comes from the
  // allreduced mean, not from luck.
  std::vector<float> local(static_cast<size_t>(ranks));
  for (auto& d : local) d = static_cast<float>(rng.next_double());
  run_cluster(ranks, [&](Communicator& comm) {
    sparse::AlgoPicker picker(params);
    std::vector<float> density{local[static_cast<size_t>(comm.rank())]};
    comm.allreduce(density);
    const sparse::AlgoChoice choice = picker.choose(
        density[0] / static_cast<float>(ranks), vocab, dim, ranks);
    std::vector<float> mine{static_cast<float>(static_cast<int>(choice.algo)),
                            static_cast<float>(choice.chunk_bytes),
                            static_cast<float>(choice.predicted_us)};
    const std::vector<float> all = comm.allgather(mine);
    for (int r = 0; r < ranks; ++r) {
      ASSERT_EQ(all[static_cast<size_t>(3 * r)], mine[0]) << "algo split-brain";
      ASSERT_EQ(all[static_cast<size_t>(3 * r + 1)], mine[1]);
      ASSERT_EQ(all[static_cast<size_t>(3 * r + 2)], mine[2]);
    }
  });
}

// An unrecoverable (black-holed) link must surface as a typed TimeoutError
// naming the dead edge within the configured deadline — never as a hang.
TEST(CollectiveFaults, DeadLinkSurfacesAsTypedTimeout) {
  Fabric fabric(2);
  FaultConfig dead;
  dead.drop_prob = 1.0;
  dead.recoverable = false;
  fabric.set_link_faults(0, 1, dead);
  fabric.set_recv_timeout(std::chrono::milliseconds(200));
  // Capture per rank: the rank behind the dead link must name the faulty
  // edge; the healthy rank may cascade-timeout on the silent peer (its
  // error then names the edge *it* is blocked on). Neither may hang.
  std::vector<std::string> errors(2);
  std::vector<std::pair<int, int>> edges(2, {-1, -1});
  const auto t0 = std::chrono::steady_clock::now();
  run_cluster(fabric, [&](Communicator& comm) {
    try {
      std::vector<float> v(4, static_cast<float>(comm.rank()));
      comm.allreduce(v);
    } catch (const TimeoutError& e) {
      errors[static_cast<size_t>(comm.rank())] = e.what();
      edges[static_cast<size_t>(comm.rank())] = {e.src(), e.dst()};
    }
  });
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  ASSERT_FALSE(errors[1].empty()) << "rank 1 must time out on the dead link";
  EXPECT_EQ(edges[1], (std::pair<int, int>{0, 1}));
  EXPECT_NE(errors[1].find("src=0"), std::string::npos) << errors[1];
  EXPECT_NE(errors[1].find("dst=1"), std::string::npos) << errors[1];
}

// --- codec roundtrips under fault injection (DESIGN.md §14) ---
//
// Fault recovery must be invisible through a codec stage: lossless paths
// stay bitwise, lossy paths stay bitwise-DETERMINISTIC (the quantization is
// a pure function of the payload, so drops/dups/reorders may reshuffle
// wire traffic but never change a decoded bit). Codec instances are built
// inside the rank body — top-k selection scratch is per-instance state and
// not thread-safe across ranks.

TEST_P(CollectiveFuzz, CodecIdentityChunkedBitwiseUnderChaos) {
  Rng rng(seed() + 20);
  const int ranks = static_cast<int>(rng.next_int(2, 5));
  const int64_t elems = rng.next_int(1, 400);
  std::vector<std::vector<float>> inputs(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    Rng vr = rng.split(static_cast<uint64_t>(r) + 51);
    auto& v = inputs[static_cast<size_t>(r)];
    v.resize(static_cast<size_t>(elems));
    for (auto& x : v) x = static_cast<float>(vr.next_double(-2.0, 2.0));
  }
  std::vector<std::vector<float>> expected(static_cast<size_t>(ranks));
  run_cluster(ranks, [&](Communicator& comm) {
    auto data = inputs[static_cast<size_t>(comm.rank())];
    comm.allreduce(data);
    expected[static_cast<size_t>(comm.rank())] = std::move(data);
  });
  Fabric fabric(ranks);
  fabric.set_fault_config(chaos_config(), seed() + 21);
  fabric.set_recv_timeout(std::chrono::seconds(20));
  run_cluster(fabric, [&](Communicator& comm) {
    const auto codec = make_codec(CodecKind::kIdentity);
    auto data = inputs[static_cast<size_t>(comm.rank())];
    allreduce_chunked(comm, data, 64, ReduceOp::kSum, codec.get());
    const auto& want = expected[static_cast<size_t>(comm.rank())];
    ASSERT_EQ(std::memcmp(data.data(), want.data(),
                          data.size() * sizeof(float)),
              0);
  });
}

TEST_P(CollectiveFuzz, CodecCastExactOnSmallIntsUnderChaos) {
  // Integers well inside the casts' exact range (fp16: |v| <= 2048, bf16:
  // |v| <= 256 — per-rank values bounded so every partial sum stays exact)
  // survive per-hop quantization untouched, so even the LOSSY casts must
  // reproduce the raw monolithic AllReduce bitwise.
  Rng rng(seed() + 22);
  const int ranks = static_cast<int>(rng.next_int(2, 5));
  const int64_t elems = rng.next_int(1, 200);
  std::vector<std::vector<float>> inputs(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    Rng vr = rng.split(static_cast<uint64_t>(r) + 61);
    auto& v = inputs[static_cast<size_t>(r)];
    v.resize(static_cast<size_t>(elems));
    for (auto& x : v) x = static_cast<float>(vr.next_int(-31, 31));
  }
  std::vector<std::vector<float>> expected(static_cast<size_t>(ranks));
  run_cluster(ranks, [&](Communicator& comm) {
    auto data = inputs[static_cast<size_t>(comm.rank())];
    comm.allreduce(data);
    expected[static_cast<size_t>(comm.rank())] = std::move(data);
  });
  for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16}) {
    Fabric fabric(ranks);
    fabric.set_fault_config(chaos_config(), seed() + 23);
    fabric.set_recv_timeout(std::chrono::seconds(20));
    run_cluster(fabric, [&](Communicator& comm) {
      const auto codec = make_codec(kind);
      auto data = inputs[static_cast<size_t>(comm.rank())];
      allreduce_chunked(comm, data, 32, ReduceOp::kSum, codec.get());
      const auto& want = expected[static_cast<size_t>(comm.rank())];
      ASSERT_EQ(std::memcmp(data.data(), want.data(),
                            data.size() * sizeof(float)),
                0)
          << codec_kind_name(kind);
    });
  }
}

TEST_P(CollectiveFuzz, CodecTopKSparseAllreduceDeterministicUnderChaos) {
  Rng rng(seed() + 24);
  const int ranks = static_cast<int>(rng.next_int(2, 5));  // incl. non-pow2
  const int64_t vocab = rng.next_int(8, 40);
  const int64_t dim = rng.next_int(1, 6);
  std::vector<SparseRows> grads;
  for (int r = 0; r < ranks; ++r) {
    const int64_t nnz = rng.next_int(0, 15);
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < nnz; ++i) ids.push_back(rng.next_int(0, vocab - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 71);
    grads.emplace_back(vocab, ids, Tensor::randn({nnz, dim}, vr));
  }
  for (SparseAlgoKind algo : {SparseAlgoKind::kSplitAllgather,
                              SparseAlgoKind::kRecursiveDoubling,
                              SparseAlgoKind::kDenseRing}) {
    // Clean-fabric reference: the bits every faulted run must reproduce.
    std::vector<std::vector<float>> expected(static_cast<size_t>(ranks));
    run_cluster(ranks, [&](Communicator& comm) {
      const auto codec = make_codec(CodecKind::kTopK, 0.4);
      SparseRows sum = sparse_allreduce(
          comm, grads[static_cast<size_t>(comm.rank())], algo, 32,
          codec.get());
      const Tensor dense = sum.to_dense();
      const auto flat = dense.flat();
      expected[static_cast<size_t>(comm.rank())]
          .assign(flat.begin(), flat.end());
    });
    for (uint64_t fs = 0; fs < 2; ++fs) {
      Fabric fabric(ranks);
      fabric.set_fault_config(chaos_config(), seed() + 25 + fs);
      fabric.set_recv_timeout(std::chrono::seconds(20));
      run_cluster(fabric, [&](Communicator& comm) {
        const auto codec = make_codec(CodecKind::kTopK, 0.4);
        SparseRows sum = sparse_allreduce(
            comm, grads[static_cast<size_t>(comm.rank())], algo, 32,
            codec.get());
        const Tensor dense = sum.to_dense();
        const auto flat = dense.flat();
        const auto& want = expected[static_cast<size_t>(comm.rank())];
        ASSERT_EQ(flat.size(), want.size()) << sparse_algo_name(algo);
        ASSERT_EQ(std::memcmp(flat.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << sparse_algo_name(algo) << " fault seed " << fs;
      });
    }
  }
}

TEST_P(CollectiveFuzz, CodecErrorFeedbackResidualsDeterministicUnderChaos) {
  // A multi-step EF + compressed-allreduce loop: the rank-local residuals
  // and the reduced data must be bitwise identical on a clean fabric and
  // under every recoverable-fault seed — EF state depends only on the
  // gradient stream, never on wire scheduling.
  Rng rng(seed() + 26);
  const int ranks = static_cast<int>(rng.next_int(2, 5));
  const int64_t elems = rng.next_int(8, 128);
  constexpr int kSteps = 3;
  auto step_data = [&](int rank, int step) {
    Rng vr(seed() * 977 + static_cast<uint64_t>(rank) * 131 +
           static_cast<uint64_t>(step));
    std::vector<float> v(static_cast<size_t>(elems));
    for (auto& x : v) x = static_cast<float>(vr.next_double(-1.0, 1.0));
    return v;
  };
  auto run_loop = [&](Fabric& fabric, std::vector<std::vector<float>>& resid,
                      std::vector<std::vector<float>>& out) {
    run_cluster(fabric, [&](Communicator& comm) {
      const auto codec = make_codec(CodecKind::kTopK, 0.3);
      std::vector<float> residual(static_cast<size_t>(elems), 0.0f);
      std::vector<float> data;
      for (int step = 0; step < kSteps; ++step) {
        data = step_data(comm.rank(), step);
        codec_error_feedback(*codec, data, residual);
        allreduce_chunked(comm, data, 32, ReduceOp::kSum, codec.get());
      }
      resid[static_cast<size_t>(comm.rank())] = std::move(residual);
      out[static_cast<size_t>(comm.rank())] = std::move(data);
    });
  };
  std::vector<std::vector<float>> resid0(static_cast<size_t>(ranks));
  std::vector<std::vector<float>> out0(static_cast<size_t>(ranks));
  {
    Fabric fabric(ranks);
    run_loop(fabric, resid0, out0);
  }
  for (uint64_t fs = 0; fs < 2; ++fs) {
    Fabric fabric(ranks);
    fabric.set_fault_config(chaos_config(), seed() + 27 + fs);
    fabric.set_recv_timeout(std::chrono::seconds(20));
    std::vector<std::vector<float>> resid(static_cast<size_t>(ranks));
    std::vector<std::vector<float>> out(static_cast<size_t>(ranks));
    run_loop(fabric, resid, out);
    for (int r = 0; r < ranks; ++r) {
      ASSERT_EQ(std::memcmp(resid[static_cast<size_t>(r)].data(),
                            resid0[static_cast<size_t>(r)].data(),
                            resid0[static_cast<size_t>(r)].size() *
                                sizeof(float)),
                0)
          << "residual rank " << r << " fault seed " << fs;
      ASSERT_EQ(std::memcmp(out[static_cast<size_t>(r)].data(),
                            out0[static_cast<size_t>(r)].data(),
                            out0[static_cast<size_t>(r)].size() *
                                sizeof(float)),
                0)
          << "data rank " << r << " fault seed " << fs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveFuzz, ::testing::Range(0, 10));

}  // namespace
}  // namespace embrace::comm
