#include "e2e.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <utility>

#include "obs/perf.h"
#include "obs/trace.h"

namespace perfbench {

using embrace::core::StrategyKind;
using embrace::core::TrainConfig;
using embrace::core::TrainStats;

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

// Step index encoded in a trainer op name ("dense/s12/3", "embdata/s4/t1").
int step_of(const std::string& name) {
  const size_t pos = name.find("/s");
  if (pos == std::string::npos) return -1;
  return std::atoi(name.c_str() + pos + 2);
}

// First op start of each step in rank 0's comm log (seconds since the
// scheduler's epoch); -1 for a step with no op.
std::vector<double> step_starts(const TrainStats& stats, int steps) {
  std::vector<double> first(static_cast<size_t>(steps), -1.0);
  for (const auto& rec : stats.comm_log) {
    const int s = step_of(rec.name);
    if (s < 0 || s >= steps) continue;
    double& f = first[static_cast<size_t>(s)];
    if (f < 0.0 || rec.start < f) f = rec.start;
  }
  return first;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string name_of(StrategyKind s) {
  return embrace::core::strategy_kind_name(s);
}

// Exact wire counts must repeat across runs of one seed: the first run of
// each strategy sets them, later runs that differ fail.
using WireCounts = std::map<std::string, std::pair<int64_t, int64_t>>;
void check_counts(WireCounts& seen, const std::string& name,
                  StrategyRun& run) {
  if (!run.ok) return;
  const std::pair counts{run.stats.fabric_messages, run.stats.fabric_bytes};
  const auto [it, fresh] = seen.emplace(name, counts);
  if (!fresh && it->second != counts) {
    run.ok = false;
    run.error = "wire counts differ between runs with one seed";
  }
}

// The traced run's StepProfile matrix: mean phase times per (rank, step),
// the step time as its slowest rank's wall, and the rank skew, over the
// steady steps.
void report_phases(const std::string& tag, const std::string& name,
                   const TrainStats& traced, int steps, int warmup,
                   Report& report) {
  constexpr int kPhases = embrace::obs::kNumPhases;
  double phase_sum[kPhases] = {};
  int64_t rows = 0;
  bool sums_ok = true;
  std::map<int, std::pair<double, double>> wall;  // step -> min, max
  for (const auto& p : traced.step_profiles) {
    double sum = 0.0;
    for (const double ms : p.phase_ms) sum += ms;
    sums_ok &= std::abs(sum - p.wall_ms) <= 1e-3 * p.wall_ms + 0.01;
    if (p.step < warmup) continue;
    for (int k = 0; k < kPhases; ++k) phase_sum[k] += p.phase_ms[k];
    ++rows;
    const auto [it, fresh] = wall.emplace(p.step, std::pair{p.wall_ms,
                                                            p.wall_ms});
    it->second.first = std::min(it->second.first, p.wall_ms);
    it->second.second = std::max(it->second.second, p.wall_ms);
  }
  report.check(sums_ok, tag + ": phases sum to wall");
  report.check(rows == static_cast<int64_t>(steps - warmup) * kWorkers,
               tag + ": full rank x step phase matrix");
  for (int k = 0; k < kPhases; ++k) {
    const auto phase = static_cast<embrace::obs::Phase>(k);
    report.set(std::string("embrace.phase_ms.") +
                   embrace::obs::phase_name(phase) + "." + name,
               rows > 0 ? phase_sum[k] / static_cast<double>(rows) : 0.0,
               "ms/step");
  }
  std::vector<double> step_ms;
  double skew_sum = 0.0;
  for (const auto& [step, min_max] : wall) {
    step_ms.push_back(min_max.second);
    skew_sum += min_max.second - min_max.first;
  }
  report.set("embrace.step_ms_p50." + name, percentile(step_ms, 50), "ms");
  report.set("embrace.step_ms_p95." + name, percentile(step_ms, 95), "ms");
  report.set("embrace.skew_ms." + name,
             wall.empty() ? 0.0 : skew_sum / static_cast<double>(wall.size()),
             "ms");
}

// run_oracle throughput: the difference between a run of oracle_steps and
// one of just the warm-up steps, median over `samples`. An untimed run
// goes first, as the single thread starts slow after threaded runs.
double oracle_tokens_per_s(const Workload& w, int samples) {
  TrainConfig timed = w.cfg;
  timed.steps = w.oracle_steps;
  TrainConfig warm = w.cfg;
  warm.steps = w.warmup_steps;
  const std::vector<int64_t> tokens = tokens_per_step(timed);
  int64_t window_tokens = 0;
  for (int s = w.warmup_steps; s < timed.steps; ++s) {
    window_tokens += tokens[static_cast<size_t>(s)];
  }
  std::vector<double> tps;
  for (int i = 0; i < samples; ++i) {
    (void)embrace::core::run_oracle(timed, kWorkers);
    const auto t0 = clock::now();
    (void)embrace::core::run_oracle(warm, kWorkers);
    const double warm_s = seconds_since(t0);
    const auto t1 = clock::now();
    (void)embrace::core::run_oracle(timed, kWorkers);
    tps.push_back(static_cast<double>(window_tokens) /
                  (seconds_since(t1) - warm_s));
  }
  return median(tps);
}

}  // namespace

bool losses_match(const std::vector<float>& got,
                  const std::vector<float>& oracle) {
  if (got.size() != oracle.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i])) return false;
    const float tol = 2e-3f * std::max(1.0f, std::abs(oracle[i]));
    if (std::abs(got[i] - oracle[i]) > tol) return false;
  }
  return true;
}

StrategyRun run_strategy(const TrainConfig& cfg,
                         const std::vector<int64_t>& step_tokens, int warmup,
                         const std::vector<float>& oracle_losses) {
  StrategyRun run;
  // Hand memory freed by earlier runs back to the OS, so every run starts
  // from the same heap and peak RSS tracks the largest run, not the
  // allocator's leftovers across runs.
  malloc_trim(0);
  const auto t0 = clock::now();
  try {
    run.stats = embrace::core::run_distributed(cfg, kWorkers);
  } catch (const std::exception& e) {
    run.error = e.what();
    return run;
  }
  run.wall_s = seconds_since(t0);
  const int last = cfg.steps - 1;
  const std::vector<double> starts = step_starts(run.stats, cfg.steps);
  if (warmup >= last ||
      std::any_of(starts.begin() + warmup, starts.end(),
                  [](double t) { return t < 0.0; })) {
    run.error = "comm log has no op for some steady step";
    return run;
  }
  run.window_s = starts[static_cast<size_t>(last)] -
                 starts[static_cast<size_t>(warmup)];
  run.window_steps = last - warmup;
  for (int s = warmup; s < last; ++s) {
    run.window_tokens += step_tokens[static_cast<size_t>(s)];
  }
  if (!losses_match(run.stats.losses, oracle_losses)) {
    run.error = "losses differ from run_oracle";
    return run;
  }
  run.ok = run.window_s > 0.0;
  if (!run.ok) run.error = "empty steady window";
  return run;
}

namespace {

// The inputs every run of one workload at one step count shares.
struct Task {
  TrainConfig cfg;
  std::vector<int64_t> tokens;
  std::vector<float> oracle_losses;
  int warmup = 0;
};

Task make_task(const Workload& w, int steps) {
  Task t;
  t.cfg = w.cfg;
  t.cfg.steps = steps;
  t.tokens = tokens_per_step(t.cfg);
  t.oracle_losses = embrace::core::run_oracle(t.cfg, kWorkers).losses;
  t.warmup = w.warmup_steps;
  return t;
}

// Untraced rounds of every strategy until `seconds` have passed since
// `t_start` (at least one round). Each run is one operation; its wire
// counts must repeat those of the strategy's first run. Every successful
// run goes to `take(strategy name, run)`. Returns the number of rounds.
int repeat_rounds(const std::string& workload, const Task& task,
                  clock::time_point t_start, double seconds, Report& report,
                  const std::function<void(const std::string&, StrategyRun&)>&
                      take) {
  WireCounts counts;
  int rounds = 0;
  do {
    for (const StrategyKind s : strategies()) {
      TrainConfig c = task.cfg;
      c.strategy = s;
      const std::string name = name_of(s);
      StrategyRun run =
          run_strategy(c, task.tokens, task.warmup, task.oracle_losses);
      check_counts(counts, name, run);
      report.record_run(run.ok, workload + "/" + name + ": " + run.error);
      if (run.ok) take(name, run);
    }
    ++rounds;
  } while (seconds_since(t_start) < seconds);
  return rounds;
}

}  // namespace

void run_end_to_end(const Workload& w, double seconds, Report& report) {
  const auto t_start = clock::now();
  const Task task = make_task(w, w.steps);
  std::map<std::string, std::vector<double>> tps, setup;
  const int rounds = repeat_rounds(
      w.name, task, t_start, seconds, report,
      [&](const std::string& name, StrategyRun& run) {
        tps[name].push_back(run.tokens_per_s());
        setup[name].push_back(run.setup_s());
      });
  for (const auto& [name, v] : tps) {
    report.set("tokens_per_s." + name, median(v), "tokens/s");
  }
  // Set-up is summed over the strategies, each at its median repetition.
  double setup_total = 0.0;
  for (const auto& [name, v] : setup) setup_total += median(v);
  report.set("setup_s", setup_total, "s");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("%s: %d repetitions of %d steps (%d warm-up) per strategy\n",
              w.name.c_str(), rounds, w.steps, w.warmup_steps);
}

void run_traced(const Workload& w, const LayerCosts& costs, double seconds,
                const std::string& trace_path, Report& report) {
  const auto t_start = clock::now();
  const Task task = make_task(w, w.traced_steps);
  const TrainConfig& cfg = task.cfg;
  double traced_tps = 0.0;

  // One traced run per strategy: the phase matrix and the Chrome trace.
  // Tracing is on only here, so no other figure carries its cost.
  embrace::obs::reset_tracing();
  embrace::obs::set_tracing_enabled(true);
  for (const StrategyKind s : strategies()) {
    const std::string name = name_of(s);
    TrainConfig c = cfg;
    c.strategy = s;
    c.perf_profile = true;
    StrategyRun run;
    {
      embrace::obs::ScopedSpan span("perfbench.run_distributed", "strategy",
                                    static_cast<int64_t>(s));
      run = run_strategy(c, task.tokens, task.warmup, task.oracle_losses);
    }
    const std::string tag = w.name + "/" + name + " traced";
    report.record_run(run.ok, tag + ": " + run.error);
    if (!run.ok) continue;
    report_phases(tag, name, run.stats, cfg.steps, task.warmup, report);
    if (s == StrategyKind::kEmbRace) traced_tps = run.tokens_per_s();
  }
  embrace::obs::set_tracing_enabled(false);
  report.check(embrace::obs::write_chrome_trace(trace_path),
               "Chrome trace written to " + trace_path);
  report.set("tokens_per_s.oracle", oracle_tokens_per_s(w, 5), "tokens/s");

  // Untraced runs for the rest of the time: exact counts and step times.
  std::map<std::string, std::vector<double>> step_ms;
  std::vector<double> embrace_tps;
  std::map<std::string, TrainStats> first_run;
  repeat_rounds(w.name, task, t_start, seconds, report,
                [&](const std::string& name, StrategyRun& run) {
                  step_ms[name].push_back(run.step_ms());
                  if (name == name_of(StrategyKind::kEmbRace)) {
                    embrace_tps.push_back(run.tokens_per_s());
                  }
                  first_run.try_emplace(name, std::move(run.stats));
                });

  const double steps = cfg.steps;
  for (const auto& [name, st] : first_run) {
    const double msgs = static_cast<double>(st.fabric_messages) / steps;
    const double bytes = static_cast<double>(st.fabric_bytes) / steps;
    const double ops = static_cast<double>(st.comm_log.size()) / steps;
    report.set("comm.msgs_per_step." + name, msgs, "msgs/step");
    report.set("comm.bytes_per_step." + name, bytes, "B/step");
    report.set("sched.ops_per_step." + name, ops, "ops/step");
    report.set("sched.busy_ms." + name, st.comm_busy_seconds * 1e3 / steps,
               "ms/step");
    // Per rank: every rank sends its share of the fabric's messages.
    const StepCounts per_rank{msgs / kWorkers, bytes / kWorkers, ops};
    const double measured = median(step_ms[name]);
    const double predicted = predict_step_ms(per_rank, costs);
    report.set("model.residual_frac." + name,
               residual_frac(measured, predicted), "ratio");
    std::printf("%-18s measured %8.3f ms/step, predicted %8.3f ms/step\n",
                name.c_str(), measured, predicted);
  }
  const double untraced_tps = median(embrace_tps);
  report.set("trace.overhead_frac",
             untraced_tps > 0.0 ? (untraced_tps - traced_tps) / untraced_tps
                                : 0.0,
             "ratio");
}

}  // namespace perfbench
