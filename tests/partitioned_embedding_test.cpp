// Tests for column-wise partitioned embedding: shard construction,
// distributed lookup == replicated lookup, gradient exchange == summed
// gradient, a lookup carrying a gradient exchange == the two exchanges, and
// the row-vs-column load-balance claim (§4.1.1).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>

#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "comm/codec.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/corpus.h"
#include "embrace/partitioned_embedding.h"
#include "nn/embedding.h"
#include "tensor/index_ops.h"

namespace embrace::core {
namespace {

class PartitionedP : public ::testing::TestWithParam<int> {
 protected:
  int world() const { return GetParam(); }
};

TEST_P(PartitionedP, ColumnRangesTileTheDim) {
  constexpr int64_t kDim = 13;
  Rng rng(1);
  PartitionedEmbedding pe(10, kDim, 0, world(), rng);
  int64_t covered = 0;
  for (int r = 0; r < world(); ++r) {
    const auto [c0, c1] = pe.col_range(r);
    EXPECT_LE(c0, c1);
    covered += c1 - c0;
  }
  EXPECT_EQ(covered, kDim);
  EXPECT_EQ(pe.col_range(0).first, 0);
  EXPECT_EQ(pe.col_range(world() - 1).second, kDim);
}

TEST_P(PartitionedP, ShardsReassembleTheReplicatedTable) {
  // The shards of all ranks, concatenated by columns, must equal the
  // replicated nn::Embedding built from the same RNG.
  constexpr int64_t kVocab = 20, kDim = 8;
  Rng ref_rng(7);
  nn::Embedding replica(kVocab, kDim, ref_rng);
  for (int r = 0; r < world(); ++r) {
    Rng rng(7);
    PartitionedEmbedding pe(kVocab, kDim, r, world(), rng);
    const auto [c0, c1] = pe.col_range(r);
    for (int64_t row = 0; row < kVocab; ++row) {
      for (int64_t c = c0; c < c1; ++c) {
        ASSERT_FLOAT_EQ(pe.shard().at({row, c - c0}),
                        replica.table().at({row, c}));
      }
    }
  }
}

TEST_P(PartitionedP, DistributedLookupEqualsReplicatedLookup) {
  constexpr int64_t kVocab = 30, kDim = 12;
  Rng ref_rng(9);
  nn::Embedding replica(kVocab, kDim, ref_rng);
  comm::run_cluster(world(), [&](comm::Communicator& comm) {
    Rng rng(9);
    PartitionedEmbedding pe(kVocab, kDim, comm.rank(), world(), rng);
    // Each rank has its own id list.
    std::vector<int64_t> my_ids;
    for (int i = 0; i < 5 + comm.rank(); ++i) {
      my_ids.push_back((comm.rank() * 7 + i * 3) % kVocab);
    }
    auto all_ids = PartitionedEmbedding::allgather_ids(comm, my_ids);
    Tensor out = pe.distributed_lookup(comm, all_ids, my_ids);
    Tensor expected = replica.forward(my_ids);
    EXPECT_LT(out.max_abs_diff(expected), 1e-6f) << "rank " << comm.rank();
  });
}

TEST_P(PartitionedP, ExchangeGradEqualsSummedColumnSlice) {
  constexpr int64_t kVocab = 25, kDim = 8;
  // Oracle: sum of all workers' full-dim gradients.
  std::vector<SparseRows> grads;
  Tensor dense_sum({kVocab, kDim});
  Rng grng(11);
  for (int w = 0; w < world(); ++w) {
    std::vector<int64_t> ids{(w * 3) % kVocab, (w * 3 + 5) % kVocab,
                             (w * 3) % kVocab};
    Rng vr = grng.split(static_cast<uint64_t>(w));
    Tensor vals = Tensor::randn({3, kDim}, vr);
    SparseRows g(kVocab, ids, vals);
    g.add_to_dense(dense_sum);
    grads.push_back(std::move(g));
  }
  comm::run_cluster(world(), [&](comm::Communicator& comm) {
    Rng rng(11);
    PartitionedEmbedding pe(kVocab, kDim, comm.rank(), world(), rng);
    SparseRows shard_grad =
        pe.exchange_grad(comm, grads[static_cast<size_t>(comm.rank())]);
    EXPECT_TRUE(shard_grad.is_coalesced());
    const auto [c0, c1] = pe.col_range(comm.rank());
    Tensor expected({kVocab, c1 - c0});
    for (int64_t r = 0; r < kVocab; ++r) {
      for (int64_t c = c0; c < c1; ++c) {
        expected.at({r, c - c0}) = dense_sum.at({r, c});
      }
    }
    EXPECT_LT(shard_grad.to_dense().max_abs_diff(expected), 1e-5f)
        << "rank " << comm.rank();
  });
}

TEST_P(PartitionedP, MultiTableExchangesEqualPerTableExchanges) {
  // The merged forms move every table in one collective; per table they
  // must return bitwise what the single-table forms return, including a
  // table whose ids are empty on some ranks.
  constexpr int64_t kVocab = 25, kDim = 8;
  constexpr int kTables = 3;
  comm::run_cluster(world(), [&](comm::Communicator& comm) {
    const int me = comm.rank();
    std::vector<std::unique_ptr<PartitionedEmbedding>> tables;
    std::vector<std::vector<int64_t>> my_ids(kTables);
    std::vector<SparseRows> grads;
    for (int t = 0; t < kTables; ++t) {
      tables.push_back(std::make_unique<PartitionedEmbedding>(
          kVocab, kDim, me, world(), Rng(5).split(static_cast<uint64_t>(t))));
      // Table 1 is empty on odd ranks.
      const int n = (t == 1 && me % 2 == 1) ? 0 : 3 + me + t;
      for (int i = 0; i < n; ++i) {
        my_ids[t].push_back((me * 5 + t * 7 + i * 3) % kVocab);
      }
      Rng vr = Rng(13).split(static_cast<uint64_t>(me * kTables + t));
      grads.emplace_back(kVocab, my_ids[t],
                         Tensor::randn({static_cast<int64_t>(n), kDim}, vr));
    }
    const auto all_ids =
        PartitionedEmbedding::allgather_ids(comm, my_ids, kVocab);
    ASSERT_EQ(all_ids.size(), static_cast<size_t>(kTables));
    std::vector<TableLookup> lookups;
    std::vector<TableGrad> parts;
    for (int t = 0; t < kTables; ++t) {
      EXPECT_EQ(all_ids[t],
                PartitionedEmbedding::allgather_ids(comm, my_ids[t]));
      lookups.push_back({.table = *tables[t],
                         .all_ids = all_ids[t],
                         .my_ids = my_ids[t]});
      parts.push_back({.table = *tables[t], .part = grads[t]});
    }
    const auto rows =
        PartitionedEmbedding::distributed_lookup(comm, lookups).rows;
    const auto shard_grads = PartitionedEmbedding::exchange_grad(comm, parts);
    for (int t = 0; t < kTables; ++t) {
      const Tensor one =
          tables[t]->distributed_lookup(comm, all_ids[t], my_ids[t]);
      EXPECT_EQ(rows[t].max_abs_diff(one), 0.0f) << "table " << t;
      const SparseRows g = tables[t]->exchange_grad(comm, grads[t]);
      EXPECT_EQ(shard_grads[t].indices(), g.indices()) << "table " << t;
      EXPECT_EQ(shard_grads[t].values().max_abs_diff(g.values()), 0.0f)
          << "table " << t;
    }
  });
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST_P(PartitionedP, LookupCarryingGradEqualsSeparateExchanges) {
  // A lookup that carries gradient sections moves both legs in one
  // AlltoAll; it must return bitwise what distributed_lookup followed by
  // exchange_grad return, at one and three tables with one table empty on
  // odd ranks, raw and fp16-encoded.
  constexpr int64_t kVocab = 25, kDim = 8;
  const std::unique_ptr<comm::Codec> fp16 =
      comm::make_codec(comm::CodecKind::kFp16);
  const std::array<const comm::Codec*, 2> codecs{nullptr, fp16.get()};
  for (const int tables : {1, 3}) {
    for (const comm::Codec* codec : codecs) {
      SCOPED_TRACE("tables=" + std::to_string(tables) +
                   (codec != nullptr ? " fp16" : " raw"));
      comm::run_cluster(world(), [&](comm::Communicator& comm) {
        const int me = comm.rank();
        std::vector<std::unique_ptr<PartitionedEmbedding>> shards;
        std::vector<std::vector<int64_t>> my_ids(tables);
        std::vector<SparseRows> grads;
        for (int t = 0; t < tables; ++t) {
          shards.push_back(std::make_unique<PartitionedEmbedding>(
              kVocab, kDim, me, world(),
              Rng(5).split(static_cast<uint64_t>(t))));
          // The middle table is empty on odd ranks: lookup and gradient.
          const int n = (t == tables / 2 && me % 2 == 1) ? 0 : 3 + me + t;
          for (int i = 0; i < n; ++i) {
            my_ids[t].push_back((me * 5 + t * 7 + i * 3) % kVocab);
          }
          // Every rank's gradient starts with the same rows, so the
          // order in which the ranks' sections are summed shows in the
          // bits.
          std::vector<int64_t> grad_ids;
          for (int i = 0; i < n; ++i) {
            grad_ids.push_back((t * 11 + i * 4 + 1) % kVocab);
          }
          Rng vr = Rng(13).split(static_cast<uint64_t>(me * tables + t));
          grads.emplace_back(
              kVocab, grad_ids,
              Tensor::randn({static_cast<int64_t>(n), kDim}, vr));
        }
        const auto all_ids =
            PartitionedEmbedding::allgather_ids(comm, my_ids, kVocab);
        std::vector<TableLookup> lookups;
        std::vector<TableGrad> parts;
        for (int t = 0; t < tables; ++t) {
          lookups.push_back({.table = *shards[t],
                             .all_ids = all_ids[t],
                             .my_ids = my_ids[t]});
          parts.push_back(
              {.table = *shards[t], .part = grads[t], .codec = codec});
        }
        const auto merged =
            PartitionedEmbedding::distributed_lookup(comm, lookups, parts);
        const auto rows =
            PartitionedEmbedding::distributed_lookup(comm, lookups);
        EXPECT_TRUE(rows.grads.empty());
        const auto shard_grads =
            PartitionedEmbedding::exchange_grad(comm, parts);
        ASSERT_EQ(merged.rows.size(), static_cast<size_t>(tables));
        ASSERT_EQ(merged.grads.size(), static_cast<size_t>(tables));
        for (int t = 0; t < tables; ++t) {
          EXPECT_TRUE(
              bitwise_equal(merged.rows[t].flat(), rows.rows[t].flat()))
              << "table " << t;
          EXPECT_EQ(merged.grads[t].indices(), shard_grads[t].indices())
              << "table " << t;
          EXPECT_TRUE(bitwise_equal(merged.grads[t].values().flat(),
                                    shard_grads[t].values().flat()))
              << "table " << t;
        }
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, PartitionedP, ::testing::Values(1, 2, 4));

TEST(PartitionedEmbedding, ExchangeGradCarriesDenseBitwise) {
  // A gradient exchange that carries a dense buffer as every payload's
  // prefix must return, on every rank, the buffer bitwise as
  // comm::one_shot_walk sums it and the table gradients bitwise as the
  // plain exchange does; an empty buffer is the plain exchange.
  constexpr int64_t kVocab = 25, kDim = 8;
  constexpr int kTables = 2;
  for (const int world : {1, 2, 3, 4}) {
    for (const size_t head : {size_t{0}, size_t{37}}) {
      SCOPED_TRACE("world=" + std::to_string(world) +
                   " head=" + std::to_string(head));
      comm::run_cluster(world, [&](comm::Communicator& comm) {
        const int me = comm.rank();
        std::vector<std::unique_ptr<PartitionedEmbedding>> shards;
        std::vector<SparseRows> grads;
        for (int t = 0; t < kTables; ++t) {
          shards.push_back(std::make_unique<PartitionedEmbedding>(
              kVocab, kDim, me, world,
              Rng(5).split(static_cast<uint64_t>(t))));
          const int n = 3 + me + t;
          std::vector<int64_t> ids;
          for (int i = 0; i < n; ++i) ids.push_back((t * 11 + i * 4) % kVocab);
          Rng vr = Rng(13).split(static_cast<uint64_t>(me * kTables + t));
          grads.emplace_back(kVocab, ids,
                             Tensor::randn({static_cast<int64_t>(n), kDim}, vr));
        }
        std::vector<TableGrad> parts;
        for (int t = 0; t < kTables; ++t) {
          parts.push_back({.table = *shards[t], .part = grads[t]});
        }
        // Rank-scaled values, so a different sum order shows in the bits.
        std::vector<float> dense(head);
        Rng hr = Rng(17).split(static_cast<uint64_t>(me));
        for (float& v : dense) {
          v = static_cast<float>(hr.next_normal()) * (1.0f + 100.0f * me);
        }
        std::vector<float> one_shot = dense;
        comm::one_shot_walk(comm, one_shot, comm::ReduceOp::kSum);
        const auto plain = PartitionedEmbedding::exchange_grad(comm, parts);
        const auto carried =
            PartitionedEmbedding::exchange_grad(comm, parts, dense);
        EXPECT_TRUE(bitwise_equal(dense, one_shot)) << "rank " << me;
        ASSERT_EQ(carried.size(), plain.size());
        for (int t = 0; t < kTables; ++t) {
          EXPECT_EQ(carried[t].indices(), plain[t].indices()) << "table " << t;
          EXPECT_TRUE(bitwise_equal(carried[t].values().flat(),
                                    plain[t].values().flat()))
              << "table " << t;
        }
      });
    }
  }
  // Rank 0 sends a 4-byte prefix and one empty section (24 bytes) where
  // rank 1 expects a 64-byte prefix; rank 0, expecting 4 bytes, reads rank
  // 1's zero prefix as a section header and finds trailing bytes.
  comm::run_cluster(2, [&](comm::Communicator& comm) {
    const PartitionedEmbedding pe(kVocab, kDim, comm.rank(), 2, Rng(5));
    const SparseRows none = SparseRows::empty(kVocab, kDim);
    const TableGrad part{.table = pe, .part = none};
    std::vector<float> dense(comm.rank() == 0 ? 1 : 16, 0.0f);
    EXPECT_THROW(PartitionedEmbedding::exchange_grad(
                     comm, std::span(&part, 1), dense),
                 WireFormatError)
        << "rank " << comm.rank();
  });
}

TEST(Partitioned, RejectsTooNarrowDim) {
  Rng rng(1);
  EXPECT_THROW(PartitionedEmbedding(10, 2, 0, 4, rng), embrace::Error);
}

TEST(RowPartitioned, RowRangesTileVocab) {
  RowPartitionedEmbedding rp(11, 4, 3);
  int64_t covered = 0;
  for (int r = 0; r < 3; ++r) {
    const auto [b, e] = rp.row_range(r);
    covered += e - b;
    for (int64_t row = b; row < e; ++row) EXPECT_EQ(rp.owner_of(row), r);
  }
  EXPECT_EQ(covered, 11);
}

TEST(RowPartitioned, ZipfSkewUnbalancesRowShardsNotColumnShards) {
  // §4.1.1: under Zipf-skewed access, row partitioning concentrates load on
  // the shard owning the head words; column partitioning is uniform by
  // construction. Quantify with max/mean shard load.
  constexpr int64_t kVocab = 10000;
  constexpr int kWorld = 4;
  data::CorpusConfig cfg;
  cfg.vocab_size = kVocab;
  cfg.zipf_skew = 1.2;
  data::SyntheticCorpus corpus(cfg);
  std::vector<int64_t> ids;
  for (int i = 0; i < 400; ++i) {
    for (int64_t t : corpus.next_sentence()) ids.push_back(t);
  }
  RowPartitionedEmbedding rp(kVocab, 16, kWorld);
  const auto load = rp.shard_load(ids);
  const double total = static_cast<double>(
      std::accumulate(load.begin(), load.end(), int64_t{0}));
  const double max_load = static_cast<double>(
      *std::max_element(load.begin(), load.end()));
  const double row_imbalance = max_load / (total / kWorld);
  // Column partitioning serves every lookup from every shard: imbalance 1.
  EXPECT_GT(row_imbalance, 1.5);
}

}  // namespace
}  // namespace embrace::core
