// Tests for tensor fusion: flatten/unflatten round trips, and the
// trainer's fused dense gradients against the synchronous oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "embrace/strategy.h"
#include "tensor/fusion.h"

namespace embrace {
namespace {

// The trainer fuses every dense gradient into one group: the group spans
// all tensors and flattens to their sum.
TEST(Fusion, SingleGroupWhenBudgetLarge) {
  Tensor a({5}), b({7});
  FusionGroup group({&a, &b});
  EXPECT_EQ(group.byte_size(), 48);
  EXPECT_EQ(group.flatten().size(), 12u);
}

TEST(Fusion, FlattenUnflattenRoundTrip) {
  Rng rng(1);
  Tensor a = Tensor::randn({3, 2}, rng);
  Tensor b = Tensor::randn({4}, rng);
  const Tensor a0 = a, b0 = b;
  FusionGroup group({&a, &b});
  EXPECT_EQ(group.byte_size(), 40);
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

// The trainer reduces every dense head gradient as one fused buffer; the
// synchronous oracle averages each tensor on its own, so it is the unfused
// reference. Trainer.OneDenseOpPerStep covers every strategy at 4 workers;
// these two cover 2 and 3 workers, whose ring blocks split the fused
// buffer unevenly.
void expect_fused_run_matches_oracle(core::TrainConfig cfg, int workers) {
  const auto fused = core::run_distributed(cfg, workers);
  const auto oracle = core::run_oracle(cfg, workers);
  ASSERT_EQ(fused.losses.size(), oracle.losses.size());
  for (size_t i = 0; i < fused.losses.size(); ++i) {
    EXPECT_NEAR(fused.losses[i], oracle.losses[i],
                2e-3f * std::max(1.0f, std::abs(oracle.losses[i])))
        << "step " << i;
  }
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
  expect_fused_run_matches_oracle(cfg, 2);
}

TEST(FusionTrainer, FusedFifoBaselineAlsoMatches) {
  core::TrainConfig cfg;
  cfg.strategy = core::StrategyKind::kHorovodAllGather;
  cfg.vocab = 200;
  cfg.dim = 12;
  cfg.head = nn::HeadKind::kTransformer;
  cfg.steps = 4;
  cfg.seed = 17;
  expect_fused_run_matches_oracle(cfg, 3);
}

}  // namespace
}  // namespace embrace
