// Tests for tensor fusion: grouping rules, flatten/unflatten round trips,
// and end-to-end equivalence + op-count reduction in the trainer.
#include <gtest/gtest.h>

#include "comm/chunk_plan.h"
#include "common/error.h"
#include "common/rng.h"
#include "embrace/strategy.h"
#include "tensor/fusion.h"

namespace embrace {
namespace {

// Forms fusion groups the way the trainer does: comm::plan_buckets over
// the tensors' byte sizes, one FusionGroup per bucket.
std::vector<FusionGroup> fuse(const std::vector<Tensor*>& tensors,
                              int64_t budget_bytes) {
  std::vector<int64_t> bytes;
  for (const Tensor* t : tensors) bytes.push_back(t->byte_size());
  std::vector<FusionGroup> groups;
  for (const auto& [b, e] : comm::plan_buckets(bytes, budget_bytes)) {
    groups.emplace_back(std::vector<Tensor*>(
        tensors.begin() + static_cast<std::ptrdiff_t>(b),
        tensors.begin() + static_cast<std::ptrdiff_t>(e)));
  }
  return groups;
}

TEST(Fusion, GroupsRespectBudget) {
  Tensor a({10});  // 40 B
  Tensor b({10});
  Tensor c({10});
  auto groups = fuse({&a, &b, &c}, 80);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].byte_size(), 80);
  EXPECT_EQ(groups[1].byte_size(), 40);
}

TEST(Fusion, OversizedTensorGetsOwnGroup) {
  Tensor small({2});
  Tensor huge({100});
  Tensor small2({2});
  auto groups = fuse({&small, &huge, &small2}, 64);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[1].byte_size(), 400);
}

TEST(Fusion, SingleGroupWhenBudgetLarge) {
  Tensor a({5}), b({7});
  auto groups = fuse({&a, &b}, 1 << 20);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].byte_size(), 48);
  EXPECT_EQ(groups[0].flatten().size(), 12u);
}

TEST(Fusion, FlattenUnflattenRoundTrip) {
  Rng rng(1);
  Tensor a = Tensor::randn({3, 2}, rng);
  Tensor b = Tensor::randn({4}, rng);
  const Tensor a0 = a, b0 = b;
  FusionGroup group({&a, &b});
  auto flat = group.flatten();
  ASSERT_EQ(flat.size(), 10u);
  EXPECT_FLOAT_EQ(flat[0], a0[0]);
  EXPECT_FLOAT_EQ(flat[6], b0[0]);
  // Modify and write back.
  for (auto& v : flat) v *= 2.0f;
  group.unflatten(flat);
  EXPECT_FLOAT_EQ(a[3], 2.0f * a0[3]);
  EXPECT_FLOAT_EQ(b[2], 2.0f * b0[2]);
}

TEST(Fusion, UnflattenRejectsWrongSize) {
  Tensor a({4});
  FusionGroup group({&a});
  EXPECT_THROW(group.unflatten(std::vector<float>(3)), Error);
}

TEST(Fusion, RejectsBadInput) {
  EXPECT_THROW(FusionGroup({}), Error);
  EXPECT_THROW(FusionGroup({nullptr}), Error);
}

TEST(FusionTrainer, FusedTrainingMatchesUnfused) {
  core::TrainConfig cfg;
  cfg.strategy = core::StrategyKind::kEmbRace;
  cfg.vocab = 200;
  cfg.dim = 12;
  cfg.head = nn::HeadKind::kTransformer;  // many small dense params
  cfg.steps = 5;
  cfg.batch_per_worker = 3;
  cfg.seed = 13;
  const auto unfused = core::run_distributed(cfg, 2);
  cfg.fusion_bytes = 4096;
  const auto fused = core::run_distributed(cfg, 2);
  ASSERT_EQ(unfused.losses.size(), fused.losses.size());
  for (size_t i = 0; i < fused.losses.size(); ++i) {
    EXPECT_NEAR(fused.losses[i], unfused.losses[i], 1e-4f) << "step " << i;
  }
  // Fusion must reduce the number of dense comm ops.
  auto count_dense = [](const core::TrainStats& s) {
    int n = 0;
    for (const auto& r : s.comm_log) n += r.name.rfind("dense/", 0) == 0;
    return n;
  };
  EXPECT_LT(count_dense(fused), count_dense(unfused));
  EXPECT_GT(count_dense(fused), 0);
}

TEST(FusionTrainer, FusedFifoBaselineAlsoMatches) {
  core::TrainConfig cfg;
  cfg.strategy = core::StrategyKind::kHorovodAllGather;
  cfg.vocab = 200;
  cfg.dim = 12;
  cfg.steps = 4;
  cfg.seed = 17;
  const auto unfused = core::run_distributed(cfg, 3);
  cfg.fusion_bytes = 1 << 20;  // everything in one buffer
  const auto fused = core::run_distributed(cfg, 3);
  for (size_t i = 0; i < fused.losses.size(); ++i) {
    EXPECT_NEAR(fused.losses[i], unfused.losses[i], 1e-4f) << "step " << i;
  }
}

}  // namespace
}  // namespace embrace
