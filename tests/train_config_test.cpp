// TrainConfig::validate(): every constraint the trainer used to assert
// ad-hoc is now a typed ConfigError, all problems are collected in one
// pass, and the trainer entry points throw ConfigValidationError instead
// of tripping the first EMBRACE_CHECK. Also: cost_params, the one mapping
// from the config's link knobs to the pickers' α–β constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "embrace/embedding_sync.h"
#include "embrace/strategy.h"

namespace embrace::core {
namespace {

TrainConfig valid_config() {
  TrainConfig cfg;
  cfg.vocab = 100;
  cfg.dim = 8;
  cfg.hidden = 8;
  cfg.classes = 10;
  cfg.steps = 2;
  return cfg;
}

bool has_error(const std::vector<ConfigError>& errors, const char* field) {
  return std::any_of(errors.begin(), errors.end(), [&](const ConfigError& e) {
    return e.field == field;
  });
}

TEST(TrainConfigValidate, ValidConfigHasNoErrors) {
  EXPECT_TRUE(valid_config().validate(4).empty());
}

TEST(TrainConfigValidate, FlagsEachBadField) {
  struct Case {
    const char* field;
    std::function<void(TrainConfig&)> mutate;
  };
  const std::vector<Case> cases = {
      {"vocab", [](TrainConfig& c) { c.vocab = 0; }},
      {"dim", [](TrainConfig& c) { c.dim = -1; }},
      {"hidden", [](TrainConfig& c) { c.hidden = 0; }},
      {"classes", [](TrainConfig& c) { c.classes = 0; }},
      {"num_tables", [](TrainConfig& c) { c.num_tables = 0; }},
      {"num_tables",
       [](TrainConfig& c) { c.num_tables = c.max_sentence_len + 1; }},
      {"batch_per_worker", [](TrainConfig& c) { c.batch_per_worker = 0; }},
      {"steps", [](TrainConfig& c) { c.steps = 0; }},
      {"min_sentence_len", [](TrainConfig& c) { c.min_sentence_len = 0; }},
      {"max_sentence_len",
       [](TrainConfig& c) { c.max_sentence_len = c.min_sentence_len - 1; }},
      {"chunk_bytes", [](TrainConfig& c) { c.chunk_bytes = 32; }},
      {"chunk_bytes",
       [](TrainConfig& c) { c.chunk_bytes = (int64_t{1} << 30) + 1; }},
      {"cache_frac", [](TrainConfig& c) { c.cache_frac = -0.1; }},
      {"cache_frac", [](TrainConfig& c) { c.cache_frac = 1.5; }},
      // Cache over a non-hybrid strategy: there is no AlltoAll to shrink.
      {"cache_frac",
       [](TrainConfig& c) {
         c.strategy = StrategyKind::kHorovodAllReduce;
         c.cache_frac = 0.25;
       }},
      {"cache_refresh_steps",
       [](TrainConfig& c) { c.cache_refresh_steps = 0; }},
      {"cache_staleness", [](TrainConfig& c) { c.cache_staleness = -1; }},
      {"topo_nodes", [](TrainConfig& c) { c.topo_nodes = -1; }},
      // Lone topo_nodes (no gpus/node) is an incomplete topology.
      {"topo_nodes", [](TrainConfig& c) { c.topo_nodes = 2; }},
      {"topo_gpus_per_node",
       [](TrainConfig& c) { c.topo_gpus_per_node = -2; }},
      // 3 x 2 does not tile a 4-worker world.
      {"topo_nodes",
       [](TrainConfig& c) {
         c.topo_nodes = 3;
         c.topo_gpus_per_node = 2;
       }},
      {"link_intra_alpha_us",
       [](TrainConfig& c) { c.link_intra_alpha_us = -1.0; }},
      {"link_intra_bytes_per_us",
       [](TrainConfig& c) { c.link_intra_bytes_per_us = -0.5; }},
  };
  for (const auto& c : cases) {
    TrainConfig cfg = valid_config();
    c.mutate(cfg);
    const auto errors = cfg.validate(4);
    EXPECT_TRUE(has_error(errors, c.field)) << "expected error on " << c.field;
  }
}

TEST(TrainConfigValidate, TopologyMustTileTheWorld) {
  TrainConfig cfg = valid_config();
  cfg.topo_nodes = 2;
  cfg.topo_gpus_per_node = 2;
  EXPECT_TRUE(cfg.validate(4).empty());
  EXPECT_FALSE(cfg.validate(8).empty());  // 2x2 != 8 workers
  cfg.topo_nodes = 0;
  cfg.topo_gpus_per_node = 0;
  EXPECT_TRUE(cfg.validate(8).empty());  // no topology: any world fits
}

TEST(TrainConfigValidate, DimMustCoverWorkers) {
  TrainConfig cfg = valid_config();
  cfg.dim = 3;
  EXPECT_TRUE(has_error(cfg.validate(4), "dim"));
  EXPECT_TRUE(cfg.validate(3).empty());
}

TEST(TrainConfigValidate, WorkersMustBePositive) {
  EXPECT_TRUE(has_error(valid_config().validate(0), "workers"));
}

TEST(TrainConfigValidate, PsStrategiesRequireSgd) {
  for (const StrategyKind s :
       {StrategyKind::kParallaxPs, StrategyKind::kBytePsDense}) {
    TrainConfig cfg = valid_config();
    cfg.strategy = s;
    cfg.optim = OptimKind::kAdam;
    EXPECT_TRUE(has_error(cfg.validate(2), "optim"));
    cfg.optim = OptimKind::kSgd;
    EXPECT_TRUE(cfg.validate(2).empty());
  }
}

TEST(TrainConfigValidate, ChunkBytesBoundsAreInclusive) {
  TrainConfig cfg = valid_config();
  cfg.chunk_bytes = 0;  // monolithic: always valid
  EXPECT_TRUE(cfg.validate(2).empty());
  cfg.chunk_bytes = 64;
  EXPECT_TRUE(cfg.validate(2).empty());
  cfg.chunk_bytes = int64_t{1} << 30;
  EXPECT_TRUE(cfg.validate(2).empty());
}

TEST(TrainConfigValidate, CollectsAllProblemsAtOnce) {
  TrainConfig cfg = valid_config();
  cfg.vocab = 0;
  cfg.steps = 0;
  cfg.chunk_bytes = 1;
  const auto errors = cfg.validate(0);
  EXPECT_GE(errors.size(), 4u);  // workers, vocab, steps, chunk_bytes
  EXPECT_TRUE(has_error(errors, "workers"));
  EXPECT_TRUE(has_error(errors, "vocab"));
  EXPECT_TRUE(has_error(errors, "steps"));
  EXPECT_TRUE(has_error(errors, "chunk_bytes"));
}

TEST(TrainConfigValidate, CodecKindSpellingsRoundTrip) {
  for (const CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kFp16, CodecKind::kBf16,
        CodecKind::kTopK, CodecKind::kAdaptive}) {
    const auto parsed = parse_codec_kind(codec_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << codec_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
    TrainConfig cfg = valid_config();
    cfg.codec = kind;
    EXPECT_TRUE(cfg.validate(4).empty()) << codec_kind_name(kind);
  }
}

TEST(TrainConfigValidate, CodecKindParserRejectsUnknownName) {
  // A typo'd spelling now dies at the parse boundary (nullopt), not inside
  // validate(): the config struct itself can no longer hold a bad codec.
  EXPECT_FALSE(parse_codec_kind("zstd").has_value());
  EXPECT_FALSE(parse_codec_kind("").has_value());
  EXPECT_FALSE(parse_codec_kind("FP16").has_value());  // case-sensitive
}

TEST(TrainConfigValidate, CodecTopKMustBeAKeepableFraction) {
  for (double bad : {0.0, -0.25, 1.5}) {
    TrainConfig cfg = valid_config();
    cfg.codec_topk = bad;
    EXPECT_TRUE(has_error(cfg.validate(4), "codec_topk")) << bad;
  }
  for (double good : {0.01, 0.2, 1.0}) {
    TrainConfig cfg = valid_config();
    cfg.codec = CodecKind::kTopK;
    cfg.codec_topk = good;
    EXPECT_TRUE(cfg.validate(4).empty()) << good;
  }
}

TEST(TrainConfigValidate, CacheKnobsValidateOnHybridStrategies) {
  for (const StrategyKind s :
       {StrategyKind::kEmbRace, StrategyKind::kEmbRaceNoVss}) {
    TrainConfig cfg = valid_config();
    cfg.strategy = s;
    cfg.cache_frac = 0.25;
    cfg.cache_refresh_steps = 4;
    cfg.cache_staleness = 0;  // sync every step: the oracle-equal setting
    EXPECT_TRUE(cfg.validate(4).empty()) << strategy_kind_name(s);
  }
  // cache_frac == 0 (cache off) is valid everywhere, hybrid or not.
  for (const StrategyKind s :
       {StrategyKind::kHorovodAllReduce, StrategyKind::kHorovodAllGather}) {
    TrainConfig cfg = valid_config();
    cfg.strategy = s;
    cfg.cache_frac = 0.0;
    EXPECT_TRUE(cfg.validate(4).empty()) << strategy_kind_name(s);
  }
}

TEST(TrainConfigValidate, TrainerEntryPointsThrowTypedError) {
  TrainConfig cfg = valid_config();
  cfg.chunk_bytes = 7;  // below the 64-byte floor
  try {
    run_distributed(cfg, 2);
    FAIL() << "run_distributed accepted an invalid config";
  } catch (const ConfigValidationError& e) {
    ASSERT_EQ(e.errors().size(), 1u);
    EXPECT_EQ(e.errors()[0].field, "chunk_bytes");
    EXPECT_NE(std::string(e.what()).find("chunk_bytes"), std::string::npos);
  }
  EXPECT_THROW(run_oracle(cfg, 2), ConfigValidationError);
  EXPECT_THROW(run_distributed(valid_config(), 0), ConfigValidationError);
}

// --- cost_params: the link every AlgoPicker prices ---

void expect_link_eq(const comm::LinkCost& a, const comm::LinkCost& b) {
  EXPECT_DOUBLE_EQ(a.alpha_us, b.alpha_us);
  EXPECT_DOUBLE_EQ(a.bytes_per_us, b.bytes_per_us);
}

TEST(CostParamsFromConfig, ZeroKnobsGiveSimnetDefaults) {
  const sparse::CostParams want = sparse::CostParams::from_simnet_defaults();
  const sparse::CostParams got = cost_params(valid_config());
  expect_link_eq(got.link, want.link);
  expect_link_eq(got.intra, want.intra);
  EXPECT_EQ(got.nodes, 1);
  EXPECT_EQ(got.gpus_per_node, 1);
  EXPECT_DOUBLE_EQ(got.allgather_eff, want.allgather_eff);
  EXPECT_DOUBLE_EQ(got.allreduce_eff, want.allreduce_eff);
  EXPECT_DOUBLE_EQ(got.alltoall_eff, want.alltoall_eff);
}

TEST(CostParamsFromConfig, EachSetLinkKnobOverridesItsValue) {
  const sparse::CostParams defaults =
      sparse::CostParams::from_simnet_defaults();
  TrainConfig cfg = valid_config();
  cfg.link_alpha_us = 7.0;
  sparse::CostParams p = cost_params(cfg);
  EXPECT_DOUBLE_EQ(p.link.alpha_us, 7.0);
  EXPECT_DOUBLE_EQ(p.link.bytes_per_us, defaults.link.bytes_per_us);

  cfg = valid_config();
  cfg.link_bytes_per_us = 125.0;
  p = cost_params(cfg);
  EXPECT_DOUBLE_EQ(p.link.alpha_us, defaults.link.alpha_us);
  EXPECT_DOUBLE_EQ(p.link.bytes_per_us, 125.0);

  // The intra-tier knobs only matter with a second tier (next test); the
  // efficiencies never come from the config.
  cfg = valid_config();
  cfg.topo_nodes = 2;
  cfg.topo_gpus_per_node = 2;
  cfg.link_intra_alpha_us = 0.5;
  p = cost_params(cfg);
  EXPECT_DOUBLE_EQ(p.intra.alpha_us, 0.5);
  EXPECT_DOUBLE_EQ(p.intra.bytes_per_us, defaults.intra.bytes_per_us);
  cfg.link_intra_alpha_us = 0.0;
  cfg.link_intra_bytes_per_us = 900.0;
  p = cost_params(cfg);
  EXPECT_DOUBLE_EQ(p.intra.alpha_us, defaults.intra.alpha_us);
  EXPECT_DOUBLE_EQ(p.intra.bytes_per_us, 900.0);
  EXPECT_DOUBLE_EQ(p.allgather_eff, defaults.allgather_eff);
}

TEST(CostParamsFromConfig, TwoByTwoTopologyFillsTheSecondTier) {
  TrainConfig cfg = valid_config();
  cfg.topo_nodes = 2;
  cfg.topo_gpus_per_node = 2;
  cfg.link_alpha_us = 50.0;
  cfg.link_bytes_per_us = 1250.0;
  cfg.link_intra_alpha_us = 5.0;
  cfg.link_intra_bytes_per_us = 5000.0;
  const sparse::CostParams p = cost_params(cfg);
  EXPECT_EQ(p.nodes, 2);
  EXPECT_EQ(p.gpus_per_node, 2);
  expect_link_eq(p.link, {.alpha_us = 50.0, .bytes_per_us = 1250.0});
  expect_link_eq(p.intra, {.alpha_us = 5.0, .bytes_per_us = 5000.0});
}

TEST(CostParamsFromConfig, SingleNodeTopologyStaysFlat) {
  // 1 node x 4 GPUs has no second tier: two-level must stay out of the
  // candidate set, exactly as CommGroup::two_level() is false there.
  TrainConfig cfg = valid_config();
  cfg.topo_nodes = 1;
  cfg.topo_gpus_per_node = 4;
  cfg.link_intra_alpha_us = 5.0;
  const sparse::CostParams p = cost_params(cfg);
  EXPECT_EQ(p.nodes, 1);
  EXPECT_EQ(p.gpus_per_node, 1);
  expect_link_eq(p.intra, sparse::CostParams::from_simnet_defaults().intra);
}

}  // namespace
}  // namespace embrace::core
