// End-to-end integration tests of the functional distributed trainer:
// every strategy's loss curve must match the single-process synchronous
// oracle (the paper's §5.7 convergence claim, strengthened to step-wise
// equivalence), EmbRace's scheduler must order ops per the 2D policy, and
// traffic accounting must reflect the strategies' wire formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "common/error.h"
#include "embrace/embedding_sync.h"
#include "embrace/strategy.h"
#include "obs/metrics.h"
#include "sparse/algo_picker.h"

namespace embrace::core {
namespace {

TrainConfig base_config() {
  TrainConfig cfg;
  cfg.vocab = 300;
  cfg.dim = 12;
  cfg.hidden = 16;
  cfg.classes = 20;
  cfg.head = nn::HeadKind::kPoolMlp;
  cfg.optim = OptimKind::kAdam;
  cfg.lr = 0.01f;
  cfg.batch_per_worker = 4;
  cfg.steps = 8;
  cfg.seed = 77;
  return cfg;
}

void expect_losses_close(const std::vector<float>& a,
                         const std::vector<float>& b, float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol * std::max(1.0f, std::abs(a[i])))
        << "step " << i;
  }
}

bool needs_sgd(StrategyKind s) {
  return s == StrategyKind::kParallaxPs || s == StrategyKind::kBytePsDense;
}

class StrategyP : public ::testing::TestWithParam<int> {
 protected:
  StrategyKind strategy() const {
    return static_cast<StrategyKind>(GetParam());
  }
};

TEST_P(StrategyP, MatchesOracleLossCurve) {
  TrainConfig cfg = base_config();
  cfg.strategy = strategy();
  if (needs_sgd(strategy())) cfg.optim = OptimKind::kSgd;
  constexpr int kWorkers = 3;
  const auto dist = run_distributed(cfg, kWorkers);
  const auto oracle = run_oracle(cfg, kWorkers);
  ASSERT_EQ(dist.losses.size(), static_cast<size_t>(cfg.steps));
  expect_losses_close(dist.losses, oracle.losses, 2e-3f);
}

TEST_P(StrategyP, LossDecreasesOverTraining) {
  TrainConfig cfg = base_config();
  cfg.strategy = strategy();
  cfg.steps = 25;
  if (needs_sgd(strategy())) {
    cfg.optim = OptimKind::kSgd;
    cfg.lr = 0.1f;
  }
  const auto stats = run_distributed(cfg, 2);
  // Average of last 5 losses < average of first 5.
  float head = 0, tail = 0;
  for (int i = 0; i < 5; ++i) {
    head += stats.losses[static_cast<size_t>(i)];
    tail += stats.losses[stats.losses.size() - 1 - i];
  }
  EXPECT_LT(tail, head);
}

TEST_P(StrategyP, SingleWorkerMatchesOracleExactly) {
  TrainConfig cfg = base_config();
  cfg.strategy = strategy();
  if (needs_sgd(strategy())) cfg.optim = OptimKind::kSgd;
  const auto dist = run_distributed(cfg, 1);
  const auto oracle = run_oracle(cfg, 1);
  expect_losses_close(dist.losses, oracle.losses, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyP, ::testing::Range(0, 6));

TEST(Trainer, AllStrategiesAgreeWithEachOther) {
  // Synchronous training: identical math regardless of transport.
  TrainConfig cfg = base_config();
  cfg.optim = OptimKind::kSgd;  // so Parallax can participate
  cfg.lr = 0.05f;
  constexpr int kWorkers = 2;
  std::vector<std::vector<float>> curves;
  for (auto s : {StrategyKind::kHorovodAllReduce,
                 StrategyKind::kHorovodAllGather, StrategyKind::kBytePsDense,
                 StrategyKind::kParallaxPs, StrategyKind::kEmbRaceNoVss,
                 StrategyKind::kEmbRace}) {
    cfg.strategy = s;
    curves.push_back(run_distributed(cfg, kWorkers).losses);
  }
  for (size_t i = 1; i < curves.size(); ++i) {
    expect_losses_close(curves[0], curves[i], 2e-3f);
  }
}

TEST(Trainer, EmbRaceMatchesOracleWithAllHeadKinds) {
  for (auto head :
       {nn::HeadKind::kPoolMlp, nn::HeadKind::kLstm, nn::HeadKind::kAttention,
        nn::HeadKind::kTransformer}) {
    TrainConfig cfg = base_config();
    cfg.strategy = StrategyKind::kEmbRace;
    cfg.head = head;
    cfg.steps = 5;
    cfg.batch_per_worker = 3;
    cfg.max_sentence_len = 6;
    const auto dist = run_distributed(cfg, 2);
    const auto oracle = run_oracle(cfg, 2);
    expect_losses_close(dist.losses, oracle.losses, 3e-3f);
  }
}

TEST(Trainer, EmbRaceMatchesOracleAcrossWorkerCounts) {
  for (int workers : {1, 2, 4}) {
    TrainConfig cfg = base_config();
    cfg.strategy = StrategyKind::kEmbRace;
    const auto dist = run_distributed(cfg, workers);
    const auto oracle = run_oracle(cfg, workers);
    expect_losses_close(dist.losses, oracle.losses, 2e-3f);
  }
}

TEST(Trainer, EmbRaceWithSgdAndAdagradAlsoMatch) {
  for (auto optim : {OptimKind::kSgd, OptimKind::kAdagrad}) {
    TrainConfig cfg = base_config();
    cfg.strategy = StrategyKind::kEmbRace;
    cfg.optim = optim;
    const auto dist = run_distributed(cfg, 2);
    const auto oracle = run_oracle(cfg, 2);
    expect_losses_close(dist.losses, oracle.losses, 2e-3f);
  }
}

TEST(Trainer, ChunkedRunsAreBitwiseEqualToMonolithic) {
  // chunk_bytes is a pure wire knob: flipping it must not
  // perturb a single loss bit (DESIGN.md §10 — the chunked dense path uses
  // the same block partition and reduce order as the monolithic ring).
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kEmbRace;
  cfg.steps = 6;
  constexpr int kWorkers = 3;
  const auto mono = run_distributed(cfg, kWorkers);

  TrainConfig chunked = cfg;
  chunked.chunk_bytes = 256;
  const auto chunked_run = run_distributed(chunked, kWorkers);
  ASSERT_EQ(mono.losses.size(), chunked_run.losses.size());
  for (size_t i = 0; i < mono.losses.size(); ++i) {
    EXPECT_EQ(mono.losses[i], chunked_run.losses[i]) << "step " << i;
  }
  // Chunking splits wire messages: more messages carry the same bytes.
  EXPECT_GT(chunked_run.fabric_messages, mono.fabric_messages);
  // And the chunked run still matches the synchronous oracle.
  const auto oracle = run_oracle(cfg, kWorkers);
  expect_losses_close(chunked_run.losses, oracle.losses, 2e-3f);
}

TEST(Trainer, DenseRouteGridMatchesOracle) {
  // Every route a dense-ring AllReduce can take: {EmbRace's dense head,
  // Horovod-AllReduce's dense embedding gradient} x chunking x wire codec x
  // topology. The identity wire stays oracle-equal, fp16 holds the
  // final-loss bound bench_codec gates, and chunking moves no loss bit: the
  // route depends on the topology alone (two-level on 2x2, the flat ring
  // otherwise), and chunk_bytes only splits its wire messages. The other
  // codec users, EmbRace-noVSS and Horovod-AllGather, ride the same grid:
  // their embedding gradients take the codec and the CommGroup too.
  constexpr int kWorkers = 4;
  for (const StrategyKind s :
       {StrategyKind::kEmbRace, StrategyKind::kHorovodAllReduce,
        StrategyKind::kEmbRaceNoVss, StrategyKind::kHorovodAllGather}) {
    for (const CodecKind codec : {CodecKind::kIdentity, CodecKind::kFp16}) {
      for (const bool topo : {false, true}) {
        TrainConfig cfg = base_config();
        cfg.strategy = s;
        cfg.codec = codec;
        cfg.steps = 6;
        if (topo) {
          cfg.topo_nodes = 2;
          cfg.topo_gpus_per_node = 2;
        }
        const auto oracle = run_oracle(cfg, kWorkers);
        std::vector<float> chunk0;
        for (const int64_t chunk : {int64_t{0}, int64_t{256}}) {
          cfg.chunk_bytes = chunk;
          SCOPED_TRACE(std::string(strategy_kind_name(s)) + " codec=" +
                       codec_kind_name(codec) + " chunk=" +
                       std::to_string(chunk) + (topo ? " 2x2" : " flat"));
          const auto dist = run_distributed(cfg, kWorkers);
          ASSERT_EQ(dist.losses.size(), oracle.losses.size());
          if (codec == CodecKind::kIdentity) {
            expect_losses_close(dist.losses, oracle.losses, 2e-3f);
          } else {
            EXPECT_NEAR(dist.losses.back(), oracle.losses.back(), 0.02f);
          }
          if (chunk == 0) {
            chunk0 = dist.losses;
          } else {
            for (size_t i = 0; i < chunk0.size(); ++i) {
              EXPECT_EQ(dist.losses[i], chunk0[i]) << "step " << i;
            }
          }
        }
      }
    }
  }
}

TEST(Trainer, OneDenseOpPerStep) {
  // Every head gradient rides one fused dense op per step, whatever the
  // strategy, head, route (flat ring or two-level) or chunking: exactly
  // `steps` "dense/" ops, and oracle-equal losses.
  constexpr int kWorkers = 4;
  for (int si = 0; si < 6; ++si) {
    const auto s = static_cast<StrategyKind>(si);
    for (const nn::HeadKind head :
         {nn::HeadKind::kPoolMlp, nn::HeadKind::kTransformer}) {
      for (const bool topo : {false, true}) {
        TrainConfig cfg = base_config();
        cfg.strategy = s;
        if (needs_sgd(s)) cfg.optim = OptimKind::kSgd;
        cfg.head = head;
        cfg.steps = 4;
        if (topo) {
          cfg.topo_nodes = 2;
          cfg.topo_gpus_per_node = 2;
        }
        const auto oracle = run_oracle(cfg, kWorkers);
        for (const int64_t chunk : {int64_t{0}, int64_t{256}}) {
          cfg.chunk_bytes = chunk;
          SCOPED_TRACE(std::string(strategy_kind_name(s)) +
                       (head == nn::HeadKind::kPoolMlp ? " pool-mlp"
                                                       : " transformer") +
                       " chunk=" + std::to_string(chunk) +
                       (topo ? " 2x2" : " flat"));
          const auto dist = run_distributed(cfg, kWorkers);
          int dense_ops = 0;
          for (const auto& r : dist.comm_log) {
            dense_ops += r.name.rfind("dense/", 0) == 0;
          }
          EXPECT_EQ(dense_ops, cfg.steps);
          expect_losses_close(dist.losses, oracle.losses, 2e-3f);
        }
      }
    }
  }
}

TEST(Trainer, ControlTrafficPerStep) {
  // A step's gradient ops are one op group, the hybrid strategies' lookup
  // is another, and the losses are averaged by one allgather after the run
  // instead of an allreduce per step. The leader announces each unit until
  // the last two periods of units repeat; it marks that announcement, and
  // from then on every rank replays the units without a message until one
  // differs. At 4 steps the Horovod and PS strategies announce 2 units
  // (their step's group twice), noVSS 4 (lookup and group twice), and
  // EmbRace 5: its last step's group also carries the standalone delayed
  // op, so it differs and is announced. With the hot-row cache on, every
  // EmbRace step carries a delayed op, and it announces 4. Every unit is
  // either announced or replayed. The only allreduce left is
  // Horovod-AllGather's density stats, one per step for every table.
  // Horovod-AllReduce gathers every table's touched rows in one allgatherv
  // per step.
  constexpr int kWorkers = 4;
  obs::Counter& announced = obs::counter("sched.announcements");
  obs::Counter& replayed = obs::counter("sched.replayed");
  obs::Counter& allreduces = obs::counter("comm.calls{collective=allreduce}");
  obs::Counter& allgathers = obs::counter("comm.calls{collective=allgather}");
  obs::Counter& allgathervs =
      obs::counter("comm.calls{collective=allgatherv}");
  for (int si = 0; si < 6; ++si) {
    const auto s = static_cast<StrategyKind>(si);
    const bool lookup_op = s == StrategyKind::kEmbRace ||
                           s == StrategyKind::kEmbRaceNoVss;
    for (const bool cache : {false, true}) {
      if (cache && !lookup_op) continue;  // the cache is hybrid-only
      TrainConfig cfg = base_config();
      cfg.strategy = s;
      if (needs_sgd(s)) cfg.optim = OptimKind::kSgd;
      cfg.num_tables = 2;
      cfg.min_sentence_len = 4;
      cfg.steps = 4;
      if (cache) cfg.cache_frac = 0.05;
      const auto oracle = run_oracle(cfg, kWorkers);
      const int64_t units = int64_t{cfg.steps} * (lookup_op ? 2 : 1);
      const int64_t want_announced =
          !lookup_op ? 2 : (s == StrategyKind::kEmbRace && !cache ? 5 : 4);
      const int64_t stats_allreduces =
          s == StrategyKind::kHorovodAllGather ? int64_t{kWorkers} * cfg.steps
                                               : 0;
      for (const int64_t chunk : {int64_t{0}, int64_t{256}}) {
        cfg.chunk_bytes = chunk;
        SCOPED_TRACE(std::string(strategy_kind_name(s)) +
                     " chunk=" + std::to_string(chunk) +
                     (cache ? " cache" : ""));
        const int64_t announced0 = announced.value();
        const int64_t replayed0 = replayed.value();
        const int64_t allreduces0 = allreduces.value();
        const int64_t allgathers0 = allgathers.value();
        const int64_t allgathervs0 = allgathervs.value();
        const auto dist = run_distributed(cfg, kWorkers);
        EXPECT_EQ(announced.value() - announced0, want_announced);
        EXPECT_EQ(announced.value() - announced0 +
                      (replayed.value() - replayed0),
                  units);
        EXPECT_EQ(allreduces.value() - allreduces0, stats_allreduces);
        EXPECT_EQ(allgathers.value() - allgathers0, kWorkers);
        if (s == StrategyKind::kHorovodAllReduce) {
          EXPECT_EQ(allgathervs.value() - allgathervs0,
                    int64_t{kWorkers} * cfg.steps);
        }
        expect_losses_close(dist.losses, oracle.losses, 2e-3f);
      }
    }
  }
}

TEST(Trainer, EmbRaceCommLogFollows2dOrder) {
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kEmbRace;
  cfg.num_tables = 2;
  cfg.min_sentence_len = 4;
  cfg.steps = 3;
  const auto stats = run_distributed(cfg, 2);
  ASSERT_FALSE(stats.comm_log.empty());
  // Per step: prior and embdata before the dense op. Step s's delayed
  // part rides embdata(s+1), so that op runs after dense(s) and before
  // prior(s+1). The last step has no lookup to ride: its delayed op runs
  // on its own, after its dense op, and it is the only delayed op. Each op
  // carries both tables.
  auto position = [&](const std::string& name) {
    for (size_t i = 0; i < stats.comm_log.size(); ++i) {
      if (stats.comm_log[i].name == name) return static_cast<int>(i);
    }
    ADD_FAILURE() << "op not found in log: " << name;
    return -1;
  };
  for (int s = 0; s < cfg.steps; ++s) {
    const std::string step = std::to_string(s);
    EXPECT_LT(position("embdata/s" + step), position("dense/s" + step));
    EXPECT_LT(position("prior/s" + step), position("dense/s" + step));
    if (s + 1 < cfg.steps) {
      const std::string next = std::to_string(s + 1);
      EXPECT_LT(position("dense/s" + step), position("embdata/s" + next));
      EXPECT_LT(position("embdata/s" + next), position("prior/s" + next));
    }
  }
  const std::string last = std::to_string(cfg.steps - 1);
  EXPECT_LT(position("dense/s" + last), position("delayed/s" + last));
  EXPECT_LT(position("prior/s" + last), position("delayed/s" + last));
  int delayed_ops = 0;
  for (const auto& r : stats.comm_log) {
    delayed_ops += r.name.rfind("delayed/", 0) == 0;
  }
  EXPECT_EQ(delayed_ops, 1);
}

TEST(Trainer, EmbRaceCarriesDelayedInNextLookup) {
  // With the cache off on a flat topology, EmbRace's delayed part rides the
  // next step's lookup AlltoAllv: one embdata and one prior AlltoAllv per
  // step, plus the last step's own delayed one. noVSS runs one embdata and
  // one embgrad AlltoAllv per step.
  constexpr int kWorkers = 4;
  obs::Counter& alltoallvs = obs::counter("comm.calls{collective=alltoallv}");
  TrainConfig cfg = base_config();
  cfg.num_tables = 2;
  cfg.min_sentence_len = 4;
  cfg.steps = 4;
  for (const StrategyKind s :
       {StrategyKind::kEmbRaceNoVss, StrategyKind::kEmbRace}) {
    SCOPED_TRACE(strategy_kind_name(s));
    cfg.strategy = s;
    const auto oracle = run_oracle(cfg, kWorkers);
    const int64_t before = alltoallvs.value();
    const auto dist = run_distributed(cfg, kWorkers);
    const int64_t per_worker = s == StrategyKind::kEmbRace
                                   ? 2 * int64_t{cfg.steps} + 1
                                   : 2 * int64_t{cfg.steps};
    EXPECT_EQ(alltoallvs.value() - before, kWorkers * per_worker);
    expect_losses_close(dist.losses, oracle.losses, 2e-3f);
  }
}

TEST(Trainer, HybridStrategiesGatherIdsOncePerStep) {
  // With the cache off, the hybrid strategies' only allgatherv calls are
  // the id gathers on the main thread, each carrying every table: step 0
  // gathers its own batch, every step but the last gathers the next batch,
  // and step s reuses step s-1's gather as its D_cur. So the count is
  // workers·steps whatever the table count.
  auto& calls = obs::counter("comm.calls{collective=allgatherv}");
  TrainConfig cfg = base_config();
  cfg.min_sentence_len = 4;
  cfg.steps = 3;
  constexpr int kWorkers = 3;
  for (const StrategyKind s :
       {StrategyKind::kEmbRaceNoVss, StrategyKind::kEmbRace}) {
    for (const int tables : {2, 3}) {
      cfg.strategy = s;
      cfg.num_tables = tables;
      const int64_t before = calls.value();
      run_distributed(cfg, kWorkers);
      EXPECT_EQ(calls.value() - before, int64_t{kWorkers} * cfg.steps)
          << strategy_kind_name(s) << " tables=" << tables;
    }
  }
}

TEST(Trainer, FifoStrategyLogIsSubmissionOrdered) {
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kHorovodAllGather;
  cfg.steps = 2;
  const auto stats = run_distributed(cfg, 2);
  // In FIFO mode the embgrad op of step 0 must precede all ops of step 1.
  int embgrad0 = -1, first_s1 = -1;
  for (size_t i = 0; i < stats.comm_log.size(); ++i) {
    const auto& n = stats.comm_log[i].name;
    if (n == "embgrad/s0") embgrad0 = static_cast<int>(i);
    if (first_s1 < 0 && n.find("/s1") != std::string::npos) {
      first_s1 = static_cast<int>(i);
    }
  }
  ASSERT_GE(embgrad0, 0);
  ASSERT_GE(first_s1, 0);
  EXPECT_LT(embgrad0, first_s1);
}

TEST(Trainer, DenseEmbeddingCommCostsMoreWire) {
  // The core premise (Table 2 / Fig 1): shipping the embedding gradient
  // dense moves far more bytes than AlltoAll on sparse rows.
  TrainConfig cfg = base_config();
  cfg.vocab = 2000;  // make the table large relative to the touched rows
  cfg.steps = 4;
  cfg.strategy = StrategyKind::kHorovodAllReduce;
  const auto dense = run_distributed(cfg, 2);
  cfg.strategy = StrategyKind::kEmbRace;
  const auto embrace = run_distributed(cfg, 2);
  EXPECT_GT(dense.fabric_bytes, 3 * embrace.fabric_bytes);
}

TEST(Trainer, ParallaxReportsPsTraffic) {
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kParallaxPs;
  cfg.optim = OptimKind::kSgd;
  const auto stats = run_distributed(cfg, 2);
  EXPECT_GT(stats.ps_bytes, 0);
}


TEST(Trainer, MultiTableMatchesOracleForAllStrategies) {
  // Two embedding tables (encoder/decoder style): every strategy must
  // still equal the synchronous oracle, with per-table comm streams.
  TrainConfig cfg = base_config();
  cfg.num_tables = 2;
  cfg.min_sentence_len = 4;  // both segments non-empty
  constexpr int kWorkers = 2;
  for (auto s : {StrategyKind::kHorovodAllReduce,
                 StrategyKind::kHorovodAllGather, StrategyKind::kBytePsDense,
                 StrategyKind::kParallaxPs, StrategyKind::kEmbRaceNoVss,
                 StrategyKind::kEmbRace}) {
    cfg.strategy = s;
    cfg.optim = needs_sgd(s) ? OptimKind::kSgd : OptimKind::kAdam;
    const auto dist = run_distributed(cfg, kWorkers);
    const auto oracle = run_oracle(cfg, kWorkers);
    expect_losses_close(dist.losses, oracle.losses, 2e-3f);
  }
}

TEST(Trainer, MultiTableEmbRaceRunsOneOpPerKindPerStep) {
  // Every table rides the same op: under every strategy, each op kind runs
  // at most once per step whatever the table count, and no op is named
  // after a table. EmbRace runs its embdata and prior ops exactly once per
  // step, and its delayed op only at the last step: every earlier delayed
  // part rides the next step's embdata.
  for (int si = 0; si < 6; ++si) {
    const auto s = static_cast<StrategyKind>(si);
    SCOPED_TRACE(strategy_kind_name(s));
    TrainConfig cfg = base_config();
    cfg.strategy = s;
    if (needs_sgd(s)) cfg.optim = OptimKind::kSgd;
    cfg.num_tables = 3;
    cfg.min_sentence_len = 4;
    cfg.steps = 2;
    const auto stats = run_distributed(cfg, 2);
    std::map<std::string, int> runs;  // "<kind>/s<step>" -> count
    for (const auto& r : stats.comm_log) {
      EXPECT_EQ(r.name.find("/t"), std::string::npos) << r.name;
      const size_t step_at = r.name.find("/s");
      ASSERT_NE(step_at, std::string::npos) << r.name;
      const std::string kind_step = r.name.substr(
          0, r.name.find_first_not_of("0123456789", step_at + 2));
      EXPECT_EQ(++runs[kind_step], 1) << r.name;
    }
    if (s == StrategyKind::kEmbRace) {
      for (int step = 0; step < cfg.steps; ++step) {
        const std::string at = std::to_string(step);
        EXPECT_EQ(runs["embdata/s" + at], 1) << step;
        EXPECT_EQ(runs["prior/s" + at], 1) << step;
        EXPECT_EQ(runs["delayed/s" + at], step + 1 == cfg.steps ? 1 : 0)
            << step;
      }
    }
  }
}

TEST(Trainer, MultiTableHybridGridMatchesOracle) {
  // The merged ops carry every table's section in one AlltoAllv, each
  // with its own codec, error-feedback residual and hot-row cache: the
  // hybrid strategies must stay oracle-equal at every table count, wire
  // codec, cache setting and route. Sentences of 1..3 tokens leave
  // table 0's segment empty on every rank-step whose batch is shorter than
  // 3 tokens, so at 3 tables empty sections ride next to full ones.
  constexpr int kWorkers = 4;
  auto& cache_hits = obs::counter("embed.cache.hits");
  for (const StrategyKind s :
       {StrategyKind::kEmbRace, StrategyKind::kEmbRaceNoVss}) {
    for (const int tables : {1, 2, 3}) {
      for (const CodecKind codec :
           {CodecKind::kIdentity, CodecKind::kFp16, CodecKind::kAdaptive}) {
        for (const bool cache : {false, true}) {
          for (const bool topo : {false, true}) {
            TrainConfig cfg = base_config();
            cfg.strategy = s;
            cfg.num_tables = tables;
            cfg.codec = codec;
            cfg.steps = 6;
            cfg.batch_per_worker = 4;
            cfg.min_sentence_len = 1;
            cfg.max_sentence_len = 3;
            if (cache) {
              cfg.cache_frac = 0.25;
              cfg.cache_staleness = 0;
              cfg.cache_refresh_steps = 2;
              // Skewed ids on bandwidth-bound links, where the refresh
              // pricing finds a hot set worth replicating.
              cfg.zipf_skew = 1.2;
              cfg.link_alpha_us = 1.0;
              cfg.link_bytes_per_us = 10.0;
            }
            if (topo) {
              cfg.topo_nodes = 2;
              cfg.topo_gpus_per_node = 2;
            }
            SCOPED_TRACE(std::string(strategy_kind_name(s)) + " tables=" +
                         std::to_string(tables) + " codec=" +
                         codec_kind_name(codec) +
                         (cache ? " cache" : "") + (topo ? " 2x2" : " flat"));
            const int64_t hits = cache_hits.value();
            const auto dist = run_distributed(cfg, kWorkers);
            const auto oracle = run_oracle(cfg, kWorkers);
            expect_losses_close(dist.losses, oracle.losses, 2e-3f);
            // The cached runs really serve rows from the replica.
            EXPECT_EQ(cache_hits.value() > hits, cache);
          }
        }
      }
    }
  }
}

TEST(Trainer, MultiTableLossDiffersFromSingleTable) {
  // Sanity: two tables genuinely change the model (different parameters
  // per segment), so curves differ from the single-table run.
  TrainConfig cfg = base_config();
  cfg.steps = 4;
  cfg.strategy = StrategyKind::kEmbRace;
  cfg.num_tables = 1;
  const auto one = run_distributed(cfg, 2);
  cfg.num_tables = 2;
  const auto two = run_distributed(cfg, 2);
  bool any_diff = false;
  for (size_t i = 1; i < one.losses.size(); ++i) {
    any_diff |= std::abs(one.losses[i] - two.losses[i]) > 1e-6f;
  }
  EXPECT_TRUE(any_diff);
}


TEST(Trainer, EmbRaceCorrectUnderDeliveryJitter) {
  // Failure injection: random per-message delivery delays skew thread
  // timing; the negotiated scheduler must keep all ranks consistent and
  // the result must still equal the oracle exactly.
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kEmbRace;
  cfg.steps = 5;
  cfg.fault_delay_max_us = 150;
  const auto dist = run_distributed(cfg, 3);
  const auto oracle = run_oracle(cfg, 3);
  expect_losses_close(dist.losses, oracle.losses, 2e-3f);
}

TEST(Trainer, AllGatherCorrectUnderDeliveryJitter) {
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kHorovodAllGather;
  cfg.steps = 4;
  cfg.fault_delay_max_us = 150;
  const auto dist = run_distributed(cfg, 3);
  const auto oracle = run_oracle(cfg, 3);
  expect_losses_close(dist.losses, oracle.losses, 2e-3f);
}

TEST(Trainer, AllGatherPricesConfiguredLink) {
  // Horovod-AllGather's picker prices the configured link, not simnet's
  // 30 us / 100 Gbps defaults. On a slow (125 B/us), low-latency link a
  // near-dense gradient belongs on the dense ring; the defaults would keep
  // it on the one-round split allgather.
  const auto picker = [](const TrainConfig& c) {
    return sparse::AlgoPicker(cost_params(c), c.chunk_bytes);
  };
  TrainConfig cfg = base_config();
  cfg.link_alpha_us = 1.0;
  cfg.link_bytes_per_us = 125.0;
  EXPECT_EQ(picker(cfg).choose(0.6, 400, 16, 4).algo,
            comm::SparseAlgoKind::kDenseRing);
  EXPECT_EQ(picker(base_config()).choose(0.6, 400, 16, 4).algo,
            comm::SparseAlgoKind::kSplitAllgather);

  // A vocabulary this small is nearly fully touched by every rank's batch.
  constexpr int kWorkers = 4;
  cfg.strategy = StrategyKind::kHorovodAllGather;
  cfg.vocab = 16;
  cfg.dim = 16;
  cfg.batch_per_worker = 16;
  cfg.steps = 4;
  obs::Counter& dense = obs::counter("sparse.algo.picks{algo=dense}");
  const int64_t dense0 = dense.value();
  const auto dist = run_distributed(cfg, kWorkers);
  EXPECT_EQ(dense.value() - dense0, kWorkers * cfg.steps * cfg.num_tables);
  expect_losses_close(dist.losses, run_oracle(cfg, kWorkers).losses, 2e-3f);
}

TEST(Trainer, ReportsWallAndCommBusyTime) {
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kEmbRace;
  cfg.steps = 3;
  const auto stats = run_distributed(cfg, 2);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.comm_busy_seconds, 0.0);
  // The comm thread cannot be busier than the whole run lasted.
  EXPECT_LE(stats.comm_busy_seconds, stats.wall_seconds * 1.05);
}


TEST(Trainer, BytePsDenseUsesPriorityScheduling) {
  // The embedding push must complete before the dense op of the same step
  // (its ByteScheduler priority beats the dense blocks), with the dense
  // buffer's wire chunked or not.
  for (const int64_t chunk : {int64_t{0}, int64_t{64}}) {
    TrainConfig cfg = base_config();
    cfg.strategy = StrategyKind::kBytePsDense;
    cfg.optim = OptimKind::kSgd;
    cfg.steps = 2;
    cfg.chunk_bytes = chunk;
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    const auto stats = run_distributed(cfg, 2);
    int embgrad0 = -1, dense0 = -1;
    for (size_t i = 0; i < stats.comm_log.size(); ++i) {
      const auto& n = stats.comm_log[i].name;
      if (n == "embgrad/s0") embgrad0 = static_cast<int>(i);
      if (n == "dense/s0") dense0 = static_cast<int>(i);
    }
    ASSERT_GE(embgrad0, 0);
    ASSERT_GE(dense0, 0);
    EXPECT_LT(embgrad0, dense0);
    EXPECT_GT(stats.ps_bytes, 0);
  }
}

TEST(Trainer, RejectsBadConfigs) {
  TrainConfig cfg = base_config();
  cfg.strategy = StrategyKind::kEmbRace;
  cfg.dim = 2;  // fewer columns than workers
  EXPECT_THROW(run_distributed(cfg, 4), Error);
  TrainConfig ps = base_config();
  ps.strategy = StrategyKind::kParallaxPs;
  ps.optim = OptimKind::kAdam;
  EXPECT_THROW(run_distributed(ps, 2), Error);
  ps.strategy = StrategyKind::kBytePsDense;
  EXPECT_THROW(run_distributed(ps, 2), Error);
}

TEST(Trainer, StrategyNamesAreStable) {
  EXPECT_STREQ(strategy_kind_name(StrategyKind::kEmbRace), "embrace");
  EXPECT_STREQ(strategy_kind_name(StrategyKind::kHorovodAllGather),
               "horovod-allgather");
}

}  // namespace
}  // namespace embrace::core
