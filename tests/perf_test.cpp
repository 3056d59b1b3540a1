// Tests for the performance observatory (DESIGN.md §11): step phase
// accounting, cross-rank straggler aggregation, the online α–β link
// profiler (including ground-truth recovery against the fabric's emulated
// link cost), and the PERF report serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "comm/fabric.h"
#include "embrace/strategy.h"
#include "obs/perf.h"
#include "obs/report.h"

namespace embrace::obs {
namespace {

// Structural JSON sanity (same helper as obs_test): balanced braces and
// brackets outside strings, string state closed at the end.
bool json_structurally_valid(const std::string& s) {
  int depth = 0, bracket = 0;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth < 0) return false;
    else if (c == '[') ++bracket;
    else if (c == ']' && --bracket < 0) return false;
  }
  return depth == 0 && bracket == 0 && !in_str;
}

StepProfile make_profile(int rank, int step, double wall,
                         double comm_wait = 0.0) {
  StepProfile p;
  p.rank = rank;
  p.step = step;
  p.wall_ms = wall;
  p.phase_ms[static_cast<int>(Phase::kCommWait)] = comm_wait;
  p.phase_ms[static_cast<int>(Phase::kOther)] = wall - comm_wait;
  return p;
}

TEST(StepAccounting, PhasesSumToWallWithOtherRemainder) {
  StepAccounting acc;
  {
    PhaseScope fwd(acc, Phase::kForward);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  acc.add(Phase::kCommWait, 1.5);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const StepProfile p = acc.finish(/*rank=*/1, /*step=*/4);
  EXPECT_EQ(p.rank, 1);
  EXPECT_EQ(p.step, 4);
  EXPECT_GE(p.phase_ms[static_cast<int>(Phase::kForward)], 2.0);
  EXPECT_DOUBLE_EQ(p.phase_ms[static_cast<int>(Phase::kCommWait)], 1.5);
  double sum = 0.0;
  for (double ms : p.phase_ms) sum += ms;
  // kOther is computed as the remainder, so the identity is exact.
  EXPECT_NEAR(sum, p.wall_ms, 1e-9);
  EXPECT_GE(p.phase_ms[static_cast<int>(Phase::kOther)], 0.0);
}

TEST(StepAccounting, NegativeAndOverAttributionAreClamped) {
  StepAccounting acc;
  acc.add(Phase::kForward, -5.0);  // clamped to zero
  acc.add(Phase::kBackward, 1e6);  // exceeds any plausible wall
  const StepProfile p = acc.finish(0, 0);
  EXPECT_DOUBLE_EQ(p.phase_ms[static_cast<int>(Phase::kForward)], 0.0);
  // kOther never goes negative when attribution exceeds the wall.
  EXPECT_DOUBLE_EQ(p.phase_ms[static_cast<int>(Phase::kOther)], 0.0);
}

TEST(StepProfile, FloatRoundTripPreservesPhases) {
  StepProfile p = make_profile(2, 7, 12.5, 3.25);
  p.phase_ms[static_cast<int>(Phase::kBackward)] = 4.0;
  float block[StepProfile::kFloats];
  p.to_floats(block);
  const StepProfile q = StepProfile::from_floats(2, 7, block);
  EXPECT_EQ(q.rank, 2);
  EXPECT_EQ(q.step, 7);
  EXPECT_FLOAT_EQ(static_cast<float>(q.wall_ms), 12.5f);
  for (int i = 0; i < kNumPhases; ++i) {
    EXPECT_FLOAT_EQ(static_cast<float>(q.phase_ms[i]),
                    static_cast<float>(p.phase_ms[i]));
  }
}

TEST(AggregateSteps, ClassifiesStragglerCommAndComputeBound) {
  std::vector<StepProfile> profiles;
  // Step 0: rank 2 is 40ms slower than the pack -> straggler-bound.
  for (int r = 0; r < 4; ++r) {
    profiles.push_back(make_profile(r, 0, r == 2 ? 140.0 : 100.0));
  }
  // Step 1: balanced walls, slowest rank half-blocked on comm -> comm-bound.
  for (int r = 0; r < 4; ++r) {
    profiles.push_back(
        make_profile(r, 1, 100.0 + r, r == 3 ? 50.0 : 5.0));
  }
  // Step 2: balanced walls, negligible comm wait -> compute-bound.
  for (int r = 0; r < 4; ++r) {
    profiles.push_back(make_profile(r, 2, 100.0 + r, 2.0));
  }
  const auto aggs = aggregate_steps(profiles);
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_EQ(aggs[0].step, 0);
  EXPECT_EQ(aggs[0].slowest_rank, 2);
  EXPECT_DOUBLE_EQ(aggs[0].max_wall_ms, 140.0);
  EXPECT_DOUBLE_EQ(aggs[0].min_wall_ms, 100.0);
  EXPECT_DOUBLE_EQ(aggs[0].skew_ms, 40.0);
  EXPECT_EQ(aggs[0].bound, StepAggregate::Bound::kStraggler);
  EXPECT_EQ(aggs[1].slowest_rank, 3);
  EXPECT_EQ(aggs[1].bound, StepAggregate::Bound::kComm);
  EXPECT_NEAR(aggs[1].comm_wait_frac, 50.0 / 103.0, 1e-12);
  EXPECT_EQ(aggs[2].bound, StepAggregate::Bound::kCompute);
  EXPECT_NEAR(aggs[2].mean_wall_ms, 101.5, 1e-12);
}

TEST(LinkProfiler, ExactFitOnSyntheticSamples) {
  LinkProfiler prof;
  prof.set_enabled(true);
  constexpr double kAlpha = 120.0;
  constexpr double kBytesPerUs = 10.0;
  for (int64_t bytes : {1000, 2000, 4000, 8000, 64000}) {
    prof.record(0, 1, bytes, kAlpha + static_cast<double>(bytes) / kBytesPerUs);
  }
  const LinkFit fit = prof.fit(0, 1);
  EXPECT_EQ(fit.samples, 5);
  EXPECT_NEAR(fit.alpha_us, kAlpha, 1e-6);
  EXPECT_NEAR(fit.bytes_per_us, kBytesPerUs, 1e-6);
  // Unseen link reports zero samples; fits() skips it.
  EXPECT_EQ(prof.fit(1, 0).samples, 0);
  EXPECT_EQ(prof.fits().size(), 1u);
}

TEST(LinkProfiler, SingleSizeClassDegeneratesToPureLatency) {
  LinkProfiler prof;
  prof.set_enabled(true);
  for (int i = 0; i < 4; ++i) prof.record(0, 1, 1024, 200.0);
  const LinkFit fit = prof.fit(0, 1);
  // One size class cannot constrain a slope: the fit falls back to the mean
  // as pure latency, reports no bandwidth, and flags itself degenerate.
  EXPECT_NEAR(fit.alpha_us, 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(fit.bytes_per_us, 0.0);
  EXPECT_TRUE(fit.degenerate);
}

TEST(LinkProfiler, ZeroByteVarianceFlagsDegenerateNotGarbageSlope) {
  // Regression: identical byte sizes with float-noise timing residue used to
  // sneak past an exact determinant-zero check and fit an enormous bogus
  // bandwidth from the ~1e-10 residual determinant.
  LinkProfiler prof;
  prof.set_enabled(true);
  prof.record(0, 1, 4096, 100.0);
  prof.record(0, 1, 4096, 100.0 + 1e-7);
  prof.record(0, 1, 4096, 100.0 - 1e-7);
  const LinkFit fit = prof.fit(0, 1);
  EXPECT_TRUE(fit.degenerate);
  EXPECT_NEAR(fit.alpha_us, 100.0, 1e-6);
  EXPECT_DOUBLE_EQ(fit.bytes_per_us, 0.0);
  // A single sample is equally unidentifiable.
  prof.record(2, 3, 512, 40.0);
  EXPECT_TRUE(prof.fit(2, 3).degenerate);
  EXPECT_NEAR(prof.fit(2, 3).alpha_us, 40.0, 1e-9);
}

TEST(LinkProfiler, RecoversEmulatedFabricCostWithinTenPercent) {
  // Ground truth: each cross-rank delivery lands α + bytes/β microseconds
  // after its send (one message in flight at a time, so no egress
  // queueing); the profiler samples the fabric's modelled send-to-ready
  // times and must fit those constants back out.
  // Preemption and timer overshoot on a loaded machine only ever delay a
  // delivery, by up to hundreds of us per sample. Constants are chosen so
  // the 10% tolerance is wide against that noise: 500 us on alpha, and a
  // 10 ms spread of wire time across the byte sizes for the slope (at
  // 400 B/us the spread was 2.6 ms, and noise alone moved β by 15%). A
  // single badly delayed sample can still skew a 20-point least-squares
  // fit, so the test fits several independently reset trials and checks
  // the median α and β: a minority of disturbed trials cannot move it.
  constexpr double kAlphaUs = 5000.0;
  constexpr double kBytesPerUs = 100.0;  // 100 MB/s
  constexpr int kTrials = 5;
  comm::Fabric fabric(2);
  comm::LinkCost cost;
  cost.alpha_us = kAlphaUs;
  cost.bytes_per_us = kBytesPerUs;
  fabric.set_uniform_link_cost(cost);
  std::vector<double> alphas;
  std::vector<double> betas;
  for (int trial = 0; trial < kTrials; ++trial) {
    link_profiler().reset();
    link_profiler().set_enabled(true);
    for (int rep = 0; rep < 5; ++rep) {
      for (size_t bytes : {size_t{16} << 10, size_t{64} << 10,
                           size_t{256} << 10, size_t{1} << 20}) {
        fabric.send(0, 1, /*tag=*/rep * 10 + bytes, comm::Bytes(bytes));
        (void)fabric.recv(1, 0, rep * 10 + bytes);
      }
    }
    link_profiler().set_enabled(false);
    const LinkFit fit = link_profiler().fit(0, 1);
    ASSERT_EQ(fit.samples, 20);
    alphas.push_back(fit.alpha_us);
    betas.push_back(fit.bytes_per_us);
  }
  link_profiler().reset();
  std::sort(alphas.begin(), alphas.end());
  std::sort(betas.begin(), betas.end());
  EXPECT_NEAR(alphas[kTrials / 2], kAlphaUs, 0.10 * kAlphaUs);
  EXPECT_NEAR(betas[kTrials / 2], kBytesPerUs, 0.10 * kBytesPerUs);
}

TEST(PerfReport, JsonCarriesSchemaMatrixStragglersAndLinks) {
  RunInfo run;
  run.strategy = "embrace";
  run.workers = 2;
  run.steps = 2;
  run.tables = 1;
  std::vector<StepProfile> profiles;
  for (int step = 0; step < 2; ++step) {
    for (int rank = 0; rank < 2; ++rank) {
      profiles.push_back(make_profile(rank, step, 10.0 + rank, 1.0));
    }
  }
  std::vector<LinkFit> links(1);
  links[0].src = 0;
  links[0].dst = 1;
  links[0].samples = 9;
  links[0].alpha_us = 55.0;
  links[0].bytes_per_us = 1250.0;
  std::vector<KindBytes> kinds(1);
  kinds[0].kind = "dense";
  kinds[0].bytes = 4096;
  kinds[0].ops = 4;
  const PerfReport report = build_report(run, profiles, links, kinds);
  EXPECT_EQ(report.schema_version, kPerfReportSchema);
  ASSERT_EQ(report.steps.size(), 2u);
  const std::string json = report_json(report);
  EXPECT_TRUE(json_structurally_valid(json));
  for (const char* key :
       {"\"schema_version\"", "\"run\"", "\"phases\"", "\"steps\"",
        "\"stragglers\"", "\"links\"", "\"bytes_by_kind\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"dense\""), std::string::npos);
  // α/β naming contract: links report "alpha_us" (start latency) and
  // "bytes_per_us" plus the degeneracy flag — never a bare "beta".
  EXPECT_NE(json.find("\"alpha_us\""), std::string::npos);
  EXPECT_NE(json.find("\"degenerate\":false"), std::string::npos);
  EXPECT_EQ(json.find("\"beta\""), std::string::npos);
  // write failure is reported, not fatal.
  EXPECT_FALSE(write_report_json(report, "/nonexistent-dir-embrace/r.json"));
}

TEST(PerfIntegration, TrainerEmitsFullRankStepMatrix) {
  core::TrainConfig cfg;
  cfg.strategy = core::StrategyKind::kEmbRace;
  cfg.steps = 3;
  cfg.batch_per_worker = 2;
  cfg.perf_profile = true;
  constexpr int kWorkers = 2;
  const core::TrainStats stats = core::run_distributed(cfg, kWorkers);
  ASSERT_EQ(stats.step_profiles.size(),
            static_cast<size_t>(kWorkers * cfg.steps));
  std::vector<std::vector<bool>> seen(
      static_cast<size_t>(cfg.steps), std::vector<bool>(kWorkers, false));
  for (const auto& p : stats.step_profiles) {
    ASSERT_GE(p.step, 0);
    ASSERT_LT(p.step, cfg.steps);
    ASSERT_GE(p.rank, 0);
    ASSERT_LT(p.rank, kWorkers);
    EXPECT_FALSE(seen[static_cast<size_t>(p.step)][static_cast<size_t>(
        p.rank)])
        << "duplicate profile for step " << p.step << " rank " << p.rank;
    seen[static_cast<size_t>(p.step)][static_cast<size_t>(p.rank)] = true;
    EXPECT_GT(p.wall_ms, 0.0);
    double sum = 0.0;
    for (double ms : p.phase_ms) sum += ms;
    // Acceptance bound: attributed phases within 5% of the wall (plus a
    // small absolute slack for sub-millisecond steps).
    EXPECT_NEAR(sum, p.wall_ms, 0.05 * p.wall_ms + 0.05);
  }
  // The full matrix implies aggregates for every step.
  EXPECT_EQ(aggregate_steps(stats.step_profiles).size(),
            static_cast<size_t>(cfg.steps));
}

TEST(PerfIntegration, ProfileOffKeepsStatsEmpty) {
  core::TrainConfig cfg;
  cfg.strategy = core::StrategyKind::kEmbRace;
  cfg.steps = 2;
  cfg.batch_per_worker = 2;
  const core::TrainStats stats = core::run_distributed(cfg, 2);
  EXPECT_TRUE(stats.step_profiles.empty());
}

}  // namespace
}  // namespace embrace::obs
