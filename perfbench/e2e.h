// End-to-end runs: run_distributed per strategy and run_oracle as the
// single-worker baseline, with the steady window cut from rank 0's comm log.
#pragma once

#include <string>
#include <vector>

#include "embrace/strategy.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

// One timed run_distributed call. The steady window runs from the first
// comm op of step `warmup` to the first comm op of the last step (rank 0's
// comm log), so set-up, warm-up steps, the last step and teardown all fall
// outside it and into setup_s.
struct StrategyRun {
  bool ok = false;
  std::string error;  // why the run failed, when !ok
  embrace::core::TrainStats stats;
  double wall_s = 0.0;    // around run_distributed, from outside
  double window_s = 0.0;  // steady window
  int64_t window_tokens = 0;
  int window_steps = 0;
  double tokens_per_s() const {
    return window_s > 0.0 ? static_cast<double>(window_tokens) / window_s
                          : 0.0;
  }
  double step_ms() const {
    return window_steps > 0 ? window_s * 1e3 / window_steps : 0.0;
  }
  double setup_s() const { return wall_s - window_s; }
};

// Runs `cfg` (steps, strategy and perf_profile already set) and checks its
// losses against `oracle_losses` at the oracle tests' tolerance.
StrategyRun run_strategy(const embrace::core::TrainConfig& cfg,
                         const std::vector<int64_t>& step_tokens,
                         int warmup,
                         const std::vector<float>& oracle_losses);

// True when every step's loss matches the oracle's within the tolerance
// the trainer's oracle tests use (2e-3, relative above magnitude 1).
bool losses_match(const std::vector<float>& got,
                  const std::vector<float>& oracle);

// Trace-0 mode: repeats every strategy until `seconds` have passed;
// reports tokens/s per strategy (each repetition's steady-window tokens
// over its window time, median over repetitions), setup_s and peak RSS.
void run_end_to_end(const Workload& w, double seconds, Report& report);

// Trace-1 mode, part 2: one traced run (perf_profile + obs tracing, which
// is on only around these runs) per strategy for the phase matrix and the
// Chrome trace, run_oracle's tokens/s as the baseline without
// communication, then untraced runs repeated until `seconds` have passed
// for the exact wire/scheduler counts, the measured step time behind the
// α–β residual, and the tracing overhead. `costs` are the layer costs the
// (untraced) layer suites measured. Writes the Chrome trace to
// `trace_path`.
void run_traced(const Workload& w, const LayerCosts& costs, double seconds,
                const std::string& trace_path, Report& report);

}  // namespace perfbench
