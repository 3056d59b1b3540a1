// Tests of the benchmark's own helpers: percentiles with their sample count,
// the α–β fit, the residual and steady-window arithmetic, and a short
// traced run whose phases
// must sum to wall. Writes that run's Chrome trace to the path given as the
// only argument; run.py --selftest then parses it.
//
//   perfbench_selftest <trace.json>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "e2e.h"
#include "harness.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(perfbench::percentile(v, 50) == 50, "p50 of 1..100 is 50");
  expect(perfbench::percentile(v, 90) == 90, "p90 of 1..100 is 90");
  expect(perfbench::percentile(v, 100) == 100, "p100 is the max");
  expect(perfbench::percentile({7.0}, 99) == 7, "one sample is every pct");
  expect(perfbench::median({1, 3, 2, 4}) == 2.5, "even-count median");

  // The tail is the highest percentile with >= 10 samples beyond it.
  expect(perfbench::tail_percentile_for(10) == 50, "n=10 reports only p50");
  expect(perfbench::tail_percentile_for(40) == 75, "n=40 reaches p75");
  expect(perfbench::tail_percentile_for(100) == 90, "n=100 reaches p90");
  expect(perfbench::tail_percentile_for(1010) == 99, "n=1010 reaches p99");
  expect(perfbench::tail_percentile_for(10010) == 99.9,
         "n=10010 reaches p99.9");
  const perfbench::Summary s = perfbench::summarize(v);
  expect(s.n == 100 && s.p50 == 50 && s.tail_pct == 90 && s.tail == 90,
         "summary carries p50, tail and count");
}

void test_fit() {
  // Exact points recover α and β with zero standard error.
  std::vector<double> x, y;
  for (double b = 64; b <= 1 << 20; b *= 4) {
    x.push_back(b);
    y.push_back(50.0 + 0.008 * b);
  }
  perfbench::LineFit f = perfbench::fit_line(x, y);
  expect(near(f.alpha, 50.0, 1e-6) && near(f.beta, 0.008, 1e-12),
         "exact line is recovered");
  expect(f.alpha_se < 1e-6 && f.beta_se < 1e-12, "exact line has zero se");

  // Noisy pooled samples: the truth lies within 4 standard errors.
  embrace::Rng rng(3);
  x.clear();
  y.clear();
  for (double b = 64; b <= 1 << 20; b *= 4) {
    for (int i = 0; i < 20; ++i) {
      x.push_back(b);
      y.push_back(50.0 + 0.008 * b + 5.0 * rng.next_normal());
    }
  }
  f = perfbench::fit_line(x, y);
  expect(f.n == static_cast<int64_t>(x.size()), "fit counts every point");
  expect(f.alpha_se > 0 && std::abs(f.alpha - 50.0) < 4 * f.alpha_se,
         "noisy α within 4 se");
  expect(f.beta_se > 0 && std::abs(f.beta - 0.008) < 4 * f.beta_se,
         "noisy β within 4 se");

  // One distinct size identifies only the mean.
  f = perfbench::fit_line({8, 8, 8}, {1, 2, 3});
  expect(f.alpha == 2 && f.beta == 0 && f.beta_se == 0,
         "degenerate fit reports the mean");
}

void test_residual() {
  expect(perfbench::residual_frac(10.0, 7.5) == 0.25, "25% unexplained");
  expect(perfbench::residual_frac(10.0, 12.0) == -0.2, "over-prediction");
  expect(perfbench::residual_frac(0.0, 1.0) == 0.0, "no measurement");
  const perfbench::StepCounts counts{100.0, 1e6, 10.0};
  const perfbench::LayerCosts costs{50.0, 0.001, 20.0, 300.0};
  // 300 + 10*20 + 100*50 + 1e6*0.001 = 6500 us.
  expect(near(perfbench::predict_step_ms(counts, costs), 6.5, 1e-12),
         "prediction sums layer costs times counts");
}

void test_window() {
  // Throughput is the whole window's tokens over its time, so one slow
  // step in four still shows: 400 tokens in 4 steps of 0.1 / 0.1 / 0.1 /
  // 0.5 s -> 500 tokens/s and 200 ms/step; set-up is the rest of the wall.
  perfbench::StrategyRun run;
  run.wall_s = 1.5;
  run.window_s = 0.8;
  run.window_steps = 4;
  run.window_tokens = 400;
  expect(near(run.tokens_per_s(), 500.0, 1e-9), "window tokens/s");
  expect(near(run.step_ms(), 200.0, 1e-9), "mean step of the window");
  expect(near(run.setup_s(), 0.7, 1e-12), "set-up is wall minus window");
  const perfbench::StrategyRun empty;
  expect(empty.tokens_per_s() == 0.0 && empty.step_ms() == 0.0,
         "empty window reports zero");
}

void test_traced_run(const std::string& trace_path) {
  perfbench::Workload w = perfbench::make_workload("wan-small", 5);
  w.cfg.steps = 6;
  w.cfg.perf_profile = true;
  const auto tokens = perfbench::tokens_per_step(w.cfg);
  const auto oracle = embrace::core::run_oracle(w.cfg, perfbench::kWorkers);
  embrace::obs::reset_tracing();
  embrace::obs::set_tracing_enabled(true);
  const perfbench::StrategyRun run =
      perfbench::run_strategy(w.cfg, tokens, 2, oracle.losses);
  embrace::obs::set_tracing_enabled(false);
  expect(run.ok, "traced run succeeds: " + run.error);
  expect(run.stats.step_profiles.size() ==
             static_cast<size_t>(w.cfg.steps * perfbench::kWorkers),
         "rank x step phase matrix is complete");
  for (const auto& p : run.stats.step_profiles) {
    double sum = 0.0;
    for (double ms : p.phase_ms) sum += ms;
    expect(std::abs(sum - p.wall_ms) <= 1e-3 * p.wall_ms + 0.01,
           "phases sum to wall");
  }
  expect(run.window_steps == 3 && run.window_tokens > 0 &&
             run.tokens_per_s() > 0,
         "steady window spans steps 2..4");
  expect(perfbench::losses_match(run.stats.losses, oracle.losses),
         "traced run matches the oracle");
  expect(embrace::obs::trace_event_count() > 0, "trace has events");
  expect(embrace::obs::write_chrome_trace(trace_path), "trace written");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <trace.json>\n");
    return 2;
  }
  test_percentiles();
  test_fit();
  test_residual();
  test_window();
  test_traced_run(argv[1]);
  std::printf("perfbench_selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
