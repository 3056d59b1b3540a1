// Shared helpers of the perfbench harness: order statistics with their
// sample count, the pooled α–β least-squares fit, the step-time residual,
// barrier-bracketed timing loops inside a persistent cluster, and the
// metric/check accumulators that end up in the result line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "comm/communicator.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

// Nearest-rank percentile (pct in (0, 100]) of an unsorted sample.
double percentile(std::vector<double> samples, double pct);

// A timing as p50 plus the highest percentile that still has at least ten
// samples beyond it (from 99.9 down to 50), with the sample count.
struct Summary {
  double p50 = 0.0;
  double tail_pct = 50.0;
  double tail = 0.0;
  int64_t n = 0;
};

// Highest percentile in {99.9, 99, 95, 90, 75, 50} with >= 10 of n samples
// strictly after its nearest rank; 50 when n is too small for any of them.
double tail_percentile_for(int64_t n);

Summary summarize(const std::vector<double>& samples);

double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// α–β model (SparCML vocabulary): a message of b bytes costs α + β·b.
// ---------------------------------------------------------------------------

// Ordinary least squares y = alpha + beta * x over every (x, y) point,
// pooled, with the standard error of each coefficient. se fields are 0 when
// fewer than three points or a single distinct x make them undefined.
struct LineFit {
  double alpha = 0.0;
  double beta = 0.0;
  double alpha_se = 0.0;
  double beta_se = 0.0;
  int64_t n = 0;
};

LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

// (measured - predicted) / measured: the share of a step the layer model
// does not explain (negative when the model over-predicts).
double residual_frac(double measured, double predicted);

// Per-step costs of one strategy, all per rank and per step.
struct StepCounts {
  double msgs = 0.0;   // fabric messages sent by one rank
  double bytes = 0.0;  // fabric bytes sent by one rank
  double ops = 0.0;    // scheduled comm ops
};

// Layer costs the model multiplies by the counts.
struct LayerCosts {
  double alpha_us = 0.0;         // per message
  double beta_us_per_byte = 0.0; // per byte
  double op_us = 0.0;            // scheduler overhead per op, no wire
  double compute_us = 0.0;       // FP/BP, optimizers, kernels, loader
};

// Predicted step time in ms: compute + ops·op + msgs·α + bytes·β, with
// nothing overlapped. A large residual means an unexplained layer.
double predict_step_ms(const StepCounts& counts, const LayerCosts& costs);

// ---------------------------------------------------------------------------
// Timing inside a persistent cluster.
// ---------------------------------------------------------------------------

// Runs `iters` iterations of an SPMD `body(i)` on every rank, each one
// between barriers on `sync`, and returns this rank's per-iteration time in
// microseconds (the barrier itself is not timed). Every rank must call it
// with the same `iters`.
std::vector<double> timed_loop(embrace::comm::Communicator& sync, int iters,
                               const std::function<void(int)>& body);

// Per-call microseconds of a single-thread kernel: `iters` samples, each
// the mean over a batch of back-to-back calls sized to last >= 20 µs (so
// calls far below the clock's resolution still time correctly).
std::vector<double> time_kernel(int iters, const std::function<void()>& fn);

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Metrics in name order plus the human-readable timing table and the
// correctness tally. Not thread-safe: record from one thread.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // Records `name` = p50 of `samples` and keeps the full summary for the
  // table printed by print_table().
  Summary timing(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit);
  // Only the table row, for timings reported under other metric names.
  Summary note(const std::string& name, const std::vector<double>& samples,
               const std::string& unit);

  // Counts one operation (one training run); `ok == false` counts it as
  // failed and logs why.
  void record_run(bool ok, const std::string& what);
  // An output check that is not an operation of its own (a layer
  // microbench's result); a false one makes the whole result incorrect.
  void check(bool ok, const std::string& what);
  bool correct() const { return failed_ == 0 && bad_checks_ == 0; }

  void print_table() const;
  // The one-line result object: correct / attempted / failed / metrics.
  std::string result_json() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::pair<Summary, std::string>> timings_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t bad_checks_ = 0;
};

}  // namespace perfbench
