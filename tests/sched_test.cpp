// Tests for Algorithm 1, the vertical prior/delayed gradient split.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "sched/vertical.h"
#include "tensor/index_ops.h"

namespace embrace::sched {
namespace {

SparseRows grad_from_ids(int64_t vocab, const std::vector<int64_t>& ids,
                         int64_t dim, Rng& rng) {
  Tensor vals = Tensor::randn({static_cast<int64_t>(ids.size()), dim}, rng);
  return SparseRows(vocab, ids, vals);
}

TEST(Vertical, SplitsExactlyPerAlgorithm1) {
  Rng rng(1);
  // Current data (with duplicates): {3, 5, 3, 9}; next: {5, 9, 11}.
  const std::vector<int64_t> cur{3, 5, 3, 9};
  const std::vector<int64_t> next{5, 9, 11};
  SparseRows g = grad_from_ids(20, cur, 2, rng);
  auto split = vertical_sparse_schedule(g, cur, next);
  EXPECT_EQ(split.prior_rows, (std::vector<int64_t>{5, 9}));
  EXPECT_EQ(split.delayed_rows, (std::vector<int64_t>{3}));
  EXPECT_EQ(split.prior.indices(), split.prior_rows);
  EXPECT_EQ(split.delayed.indices(), split.delayed_rows);
  EXPECT_TRUE(split.prior.is_coalesced());
  EXPECT_TRUE(split.delayed.is_coalesced());
  // Reassembled parts equal the coalesced gradient.
  EXPECT_TRUE(SparseRows::concat(split.prior, split.delayed)
                  .logically_equal(g.coalesced(), 1e-5f));
}

TEST(Vertical, AllRowsDelayedWhenNoOverlap) {
  Rng rng(2);
  const std::vector<int64_t> cur{1, 2};
  SparseRows g = grad_from_ids(10, cur, 3, rng);
  auto split = vertical_sparse_schedule(g, cur, {7, 8});
  EXPECT_TRUE(split.prior.empty());
  EXPECT_EQ(split.delayed.nnz_rows(), 2);
}

TEST(Vertical, AllRowsPriorWhenFullOverlap) {
  Rng rng(3);
  const std::vector<int64_t> cur{1, 2, 1};
  SparseRows g = grad_from_ids(10, cur, 3, rng);
  auto split = vertical_sparse_schedule(g, cur, {1, 2, 3});
  EXPECT_EQ(split.prior.nnz_rows(), 2);
  EXPECT_TRUE(split.delayed.empty());
}

// RAII save/restore for the global verify switch so tests can't leak state.
struct ScopedVerticalVerify {
  explicit ScopedVerticalVerify(bool enabled)
      : prev_(set_vertical_verify(enabled)) {}
  ~ScopedVerticalVerify() { set_vertical_verify(prev_); }
  bool prev_;
};

TEST(Vertical, RejectsGradRowsOutsideCurrentData) {
  ScopedVerticalVerify verify(true);
  Rng rng(4);
  SparseRows g = grad_from_ids(10, {4}, 2, rng);
  EXPECT_THROW(vertical_sparse_schedule(g, {1, 2}, {1}), Error);
}

TEST(Vertical, MembershipCheckIsGatedByVerifyFlag) {
  ScopedVerticalVerify verify(false);
  Rng rng(4);
  // Out-of-batch gradient row: invalid input, but with verification off the
  // O(nnz log n) check is skipped and the split proceeds.
  SparseRows g = grad_from_ids(10, {4}, 2, rng);
  EXPECT_NO_THROW(vertical_sparse_schedule(g, {1, 2, 4}, {1}));
}

// Pin: the verify flag is observation-only — the computed prior/delayed
// split is bit-identical with the check on and off.
TEST(Vertical, VerifyFlagDoesNotChangeSplit) {
  const std::vector<int64_t> cur{3, 5, 3, 9, 12, 5};
  const std::vector<int64_t> next{5, 9, 11, 12};
  Rng rng_a(17);
  Rng rng_b(17);
  SparseRows g_a = grad_from_ids(20, cur, 4, rng_a);
  SparseRows g_b = grad_from_ids(20, cur, 4, rng_b);
  VerticalSplit with_check, without_check;
  {
    ScopedVerticalVerify verify(true);
    with_check = vertical_sparse_schedule(g_a, cur, next);
  }
  {
    ScopedVerticalVerify verify(false);
    without_check = vertical_sparse_schedule(g_b, cur, next);
  }
  EXPECT_EQ(with_check.prior_rows, without_check.prior_rows);
  EXPECT_EQ(with_check.delayed_rows, without_check.delayed_rows);
  EXPECT_TRUE(with_check.prior.logically_equal(without_check.prior, 0.0f));
  EXPECT_TRUE(
      with_check.delayed.logically_equal(without_check.delayed, 0.0f));
}

// Property: for random data, prior rows ⊆ D_next, delayed ∩ D_next = ∅,
// and the two parts partition the coalesced gradient.
class VerticalProperty : public ::testing::TestWithParam<int> {};

TEST_P(VerticalProperty, InvariantsHold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 5);
  const int64_t vocab = 40;
  std::vector<int64_t> cur, next;
  const int64_t nc = rng.next_int(1, 30);
  const int64_t nn = rng.next_int(0, 30);
  for (int64_t i = 0; i < nc; ++i) cur.push_back(rng.next_int(0, vocab - 1));
  for (int64_t i = 0; i < nn; ++i) next.push_back(rng.next_int(0, vocab - 1));
  Rng vr = rng.split(1);
  SparseRows g = grad_from_ids(vocab, cur, 2, vr);
  auto split = vertical_sparse_schedule(g, cur, next);
  const auto d_next = unique_sorted(next);
  for (int64_t r : split.prior.indices()) {
    EXPECT_TRUE(std::binary_search(d_next.begin(), d_next.end(), r));
  }
  for (int64_t r : split.delayed.indices()) {
    EXPECT_FALSE(std::binary_search(d_next.begin(), d_next.end(), r));
  }
  EXPECT_EQ(split.prior.nnz_rows() + split.delayed.nnz_rows(),
            g.coalesced().nnz_rows());
  EXPECT_TRUE(SparseRows::concat(split.prior, split.delayed)
                  .logically_equal(g.coalesced(), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, VerticalProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace embrace::sched
