// Tests for SparseRows collectives over the in-process cluster.
#include <gtest/gtest.h>

#include "comm/cluster.h"
#include "comm/sparse_collectives.h"
#include "common/rng.h"
#include "tensor/index_ops.h"

namespace embrace::comm {
namespace {

class SparseCollectivesP : public ::testing::TestWithParam<int> {
 protected:
  int n() const { return GetParam(); }
};

TEST_P(SparseCollectivesP, SparseAllgatherEqualsDenseSum) {
  constexpr int64_t kRows = 40;
  constexpr int64_t kDim = 3;
  // Build per-rank sparse gradients and a dense oracle of their sum.
  std::vector<SparseRows> contribs;
  Tensor oracle({kRows, kDim});
  Rng rng(17);
  for (int r = 0; r < n(); ++r) {
    const int64_t nnz = rng.next_int(0, 10);
    std::vector<int64_t> idx;
    for (int64_t i = 0; i < nnz; ++i) idx.push_back(rng.next_int(0, kRows - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 1);
    Tensor vals = Tensor::randn({nnz, kDim}, vr);
    SparseRows s(kRows, idx, vals);
    s.add_to_dense(oracle);
    contribs.push_back(std::move(s));
  }
  run_cluster(n(), [&](Communicator& comm) {
    SparseRows sum =
        sparse_allgather(comm, contribs[static_cast<size_t>(comm.rank())]);
    EXPECT_LT(sum.to_dense().max_abs_diff(oracle), 1e-4f);
  });
}

TEST_P(SparseCollectivesP, SparseAlltoAllRoutesPayloads) {
  constexpr int64_t kRows = 30;
  constexpr int64_t kDim = 2;
  run_cluster(n(), [&](Communicator& comm) {
    std::vector<SparseRows> send;
    for (int dst = 0; dst < n(); ++dst) {
      // Row index encodes (src, dst) so the receiver can verify routing.
      const int64_t row = (comm.rank() * n() + dst) % kRows;
      Tensor vals({1, kDim});
      vals.at({0, 0}) = static_cast<float>(comm.rank());
      vals.at({0, 1}) = static_cast<float>(dst);
      send.emplace_back(kRows, std::vector<int64_t>{row}, std::move(vals));
    }
    auto recv = sparse_alltoall(comm, std::move(send));
    ASSERT_EQ(static_cast<int>(recv.size()), n());
    for (int src = 0; src < n(); ++src) {
      const auto& s = recv[static_cast<size_t>(src)];
      ASSERT_EQ(s.nnz_rows(), 1);
      EXPECT_EQ(s.indices()[0], (src * n() + comm.rank()) % kRows);
      EXPECT_FLOAT_EQ(s.values().at({0, 0}), static_cast<float>(src));
      EXPECT_FLOAT_EQ(s.values().at({0, 1}), static_cast<float>(comm.rank()));
    }
  });
}

TEST_P(SparseCollectivesP, TensorAllreduceSums) {
  run_cluster(n(), [&](Communicator& comm) {
    Tensor t = Tensor::full({3, 3}, static_cast<float>(comm.rank() + 1));
    comm.allreduce(t.flat());
    const float expected = static_cast<float>(n() * (n() + 1)) / 2.0f;
    for (float v : t.flat()) ASSERT_FLOAT_EQ(v, expected);
  });
}

TEST_P(SparseCollectivesP, SparseAllgatherEmptyContributions) {
  run_cluster(n(), [&](Communicator& comm) {
    SparseRows mine = SparseRows::empty(10, 4);
    SparseRows sum = sparse_allgather(comm, mine);
    EXPECT_TRUE(sum.empty());
    EXPECT_EQ(sum.num_total_rows(), 10);
    EXPECT_EQ(sum.dim(), 4);
  });
}

INSTANTIATE_TEST_SUITE_P(RankSweep, SparseCollectivesP,
                         ::testing::Values(1, 2, 4, 6));

}  // namespace
}  // namespace embrace::comm
