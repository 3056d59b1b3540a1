// trace_explorer: trains a few steps of a distributed job with tracing
// enabled and writes the merged per-rank timeline as Chrome-trace JSON plus
// a metrics snapshot.
//
// Open trace.json in chrome://tracing or https://ui.perfetto.dev — each rank
// renders as one process with its training thread and comm thread as
// separate lanes, so the hybrid strategy's overlap (dense AllReduce under
// BP, the delayed gradient riding the next step's lookup AlltoAllv) is
// directly visible.
//
// Usage:
//   trace_explorer [workers] [steps] [strategy] [tables]
//                  [drop_prob] [delay_us] [timeout_ms]
//     workers:   rank count                      (default 4)
//     steps:     training steps                  (default 6)
//     strategy:  allreduce|allgather|novss|embrace  (default embrace)
//     tables:    embedding tables                (default 2)
//     drop_prob: recoverable per-message drop probability (default 0)
//     delay_us:  max uniform delivery delay in microseconds (default 0)
//     timeout_ms: recv deadline; 0 = wait forever (default 0, or 10000
//                 whenever faults are enabled)
//
// With faults enabled the run demonstrates DESIGN.md §8: either it
// completes with the same losses (drops recovered — see fabric.dropped /
// fabric.retries below) or it fails within the deadline with a typed
// TimeoutError naming the dead edge (exit code 3; trace and metrics are
// still written for post-mortem).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "comm/fabric.h"

#include "embrace/strategy.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace embrace;
using namespace embrace::core;

namespace {

StrategyKind pick_strategy(const std::string& name) {
  if (name == "allreduce") return StrategyKind::kHorovodAllReduce;
  if (name == "allgather") return StrategyKind::kHorovodAllGather;
  if (name == "novss") return StrategyKind::kEmbRaceNoVss;
  if (name == "embrace") return StrategyKind::kEmbRace;
  std::fprintf(stderr,
               "unknown strategy '%s' (want allreduce|allgather|novss|"
               "embrace)\n",
               name.c_str());
  std::exit(2);
}

int positive_arg(const char* text, const char* what) {
  const int v = std::atoi(text);
  if (v < 1) {
    std::fprintf(stderr, "%s must be a positive integer, got '%s'\n", what,
                 text);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = argc > 1 ? positive_arg(argv[1], "workers") : 4;
  const int steps = argc > 2 ? positive_arg(argv[2], "steps") : 6;
  const std::string strategy = argc > 3 ? argv[3] : "embrace";
  const int tables = argc > 4 ? positive_arg(argv[4], "tables") : 2;
  const double drop_prob = argc > 5 ? std::atof(argv[5]) : 0.0;
  const long delay_us = argc > 6 ? std::atol(argv[6]) : 0;
  long timeout_ms = argc > 7 ? std::atol(argv[7]) : 0;
  if (drop_prob < 0.0 || drop_prob > 1.0 || delay_us < 0 || timeout_ms < 0) {
    std::fprintf(stderr, "bad fault args: drop_prob in [0,1], "
                         "delay_us/timeout_ms >= 0\n");
    return 2;
  }
  const bool faulted = drop_prob > 0.0 || delay_us > 0;
  if (faulted && timeout_ms == 0) timeout_ms = 10000;  // default watchdog

  obs::set_tracing_enabled(true);
  obs::reset_tracing();
  obs::reset_metrics();

  TrainConfig cfg;
  cfg.strategy = pick_strategy(strategy);
  cfg.steps = steps;
  cfg.num_tables = tables;
  cfg.batch_per_worker = 4;
  cfg.fault_drop_prob = drop_prob;
  cfg.fault_delay_max_us = static_cast<uint64_t>(delay_us);
  cfg.fault_recoverable = true;
  cfg.recv_timeout_ms = static_cast<uint64_t>(timeout_ms);

  TrainStats stats;
  bool timed_out = false;
  std::string timeout_what;
  try {
    stats = run_distributed(cfg, workers);
  } catch (const comm::TimeoutError& e) {
    timed_out = true;
    timeout_what = e.what();
  } catch (const sched::SchedulerError& e) {
    timed_out = true;
    timeout_what = e.what();
  }

  obs::write_chrome_trace("trace.json");
  obs::write_metrics_json("metrics.json");

  const auto snap = obs::metrics_snapshot();
  if (timed_out) {
    std::printf("run FAILED within the %ld ms deadline: %s\n", timeout_ms,
                timeout_what.c_str());
  } else {
    std::printf("trained %d steps x %d workers (%s), final loss %.4f\n",
                steps, workers, strategy_kind_name(cfg.strategy),
                stats.losses.empty() ? 0.0f : stats.losses.back());
  }
  if (faulted) {
    std::printf("faults: drop_prob=%.3f delay_us=%ld timeout_ms=%ld\n",
                drop_prob, delay_us, timeout_ms);
  }
  std::printf("trace.json:   %lld events (%lld dropped to ring wrap)\n",
              static_cast<long long>(obs::trace_event_count()),
              static_cast<long long>(obs::trace_dropped_count()));
  std::printf("metrics.json: %zu counters, %zu gauges, %zu histograms\n",
              snap.counters.size(), snap.gauges.size(),
              snap.histograms.size());
  for (const char* key :
       {"fabric.send.bytes", "comm.bytes{collective=allreduce}",
        "comm.bytes{collective=allreduce_chunked}",
        "comm.bytes{collective=alltoallv}", "vertical.prior_rows",
        "vertical.delayed_rows", "sched.ops_executed", "sched.ops_failed",
        "fabric.dropped", "fabric.duplicated", "fabric.retries",
        "comm.timeouts", "trainer.aborts"}) {
    const auto it = snap.counters.find(key);
    if (it != snap.counters.end()) {
      std::printf("  %-42s %lld\n", key,
                  static_cast<long long>(it->second));
    }
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (name.rfind("trainer.stall_ms", 0) == 0 && hist.count > 0) {
      std::printf("  %-36s count=%lld mean=%.3f ms\n", name.c_str(),
                  static_cast<long long>(hist.count),
                  hist.sum / static_cast<double>(hist.count));
    }
  }
  std::puts("\nopen trace.json in chrome://tracing or ui.perfetto.dev");
  return timed_out ? 3 : 0;
}
