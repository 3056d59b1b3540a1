// Step-aligned performance observatory: phase accounting, cross-rank
// straggler analysis, and an online α–β link profiler.
//
// The EmbRace argument is about *where time goes* — computation stall,
// comm wait, overlap across ranks (paper Figs. 6–8). The tracer (trace.h)
// answers that visually for one run; this module answers it numerically:
//
//   * StepProfile — per (rank, step) wall time decomposed into phases.
//     Produced by a StepAccounting instance the trainer keeps per step and
//     feeds through RAII PhaseScope hooks. Profiles are plain float rows so
//     ranks can exchange them with a tiny allgather and every rank (and the
//     report) sees the full rank × step matrix.
//   * aggregate_steps — collapses the matrix into per-step straggler
//     attribution: slowest rank, skew, and a compute/comm/straggler-bound
//     classification (the Fig. 8 stall story as a queryable artifact).
//   * LinkProfiler — streaming least-squares fit of per-(src,dst) message
//     cost to the α–β model  t(n) = α + n/β  from timestamps the fabric
//     records on delivery. The fitted LinkFit values are the measured
//     inputs the ROADMAP's AlgoPicker and topology-aware collectives need.
//
// This layer deliberately knows nothing about comm:: or sched:: — the
// trainer owns the exchange, the fabric owns the sampling, and report.h
// serializes the result.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace embrace::obs {

// --- phase accounting ---

// Where a rank's step wall time went. kOther is the unattributed remainder,
// computed at finish() so the phases always sum to the wall time exactly.
enum class Phase : int {
  kForward = 0,    // embedding lookup + input assembly
  kBackward = 1,   // fused forward/backward of the dense model
  kOptimizer = 2,  // dense + embedding optimizer steps
  kCommIssue = 3,  // building/submitting comm work (metadata, split, enqueue)
  kCommWait = 4,   // blocked on communication results (the paper's "stall")
  kOther = 5,      // remainder: bookkeeping, loss reduction epilogue, ...
};
inline constexpr int kNumPhases = 6;

// Human-readable phase name ("forward", "comm_wait", ...).
const char* phase_name(Phase p);

// One rank's accounting for one step, in milliseconds.
struct StepProfile {
  int rank = 0;
  int step = 0;
  double wall_ms = 0.0;
  double phase_ms[kNumPhases] = {};

  double stall_ms() const { return phase_ms[static_cast<int>(Phase::kCommWait)]; }

  // Wire format: wall followed by the phase vector, so a profile rides in a
  // fixed-size float block through Communicator::allgather. rank/step are
  // implied by the block's position and the step loop, so they stay local.
  static constexpr size_t kFloats = 1 + kNumPhases;
  void to_floats(std::span<float> out) const;
  static StepProfile from_floats(int rank, int step,
                                 std::span<const float> in);
};

// Accumulates phase time for one step of one rank. Construction starts the
// wall clock; finish() stops it and folds the unattributed remainder into
// kOther. Not thread-safe: one instance per rank thread per step.
class StepAccounting {
 public:
  StepAccounting();

  // Adds `ms` to a phase. Negative values are clamped to zero.
  void add(Phase p, double ms);

  // Milliseconds accumulated so far for a phase.
  double phase_ms(Phase p) const { return phase_ms_[static_cast<int>(p)]; }

  // Stops the clock and returns the finished profile. Attributed time in
  // excess of the wall (overlapping scopes) leaves kOther at zero rather
  // than going negative.
  StepProfile finish(int rank, int step) const;

 private:
  std::chrono::steady_clock::time_point start_;
  double phase_ms_[kNumPhases] = {};
};

// RAII: attributes construction..destruction to `phase` on `acc`.
class PhaseScope {
 public:
  PhaseScope(StepAccounting& acc, Phase phase)
      : acc_(acc), phase_(phase),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseScope() {
    const auto end = std::chrono::steady_clock::now();
    acc_.add(phase_,
             std::chrono::duration<double, std::milli>(end - start_).count());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  StepAccounting& acc_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

// --- straggler / critical-path analysis ---

// Per-step summary over all ranks' profiles.
struct StepAggregate {
  enum class Bound : int { kCompute = 0, kComm = 1, kStraggler = 2 };

  int step = 0;
  int slowest_rank = 0;
  double min_wall_ms = 0.0;
  double max_wall_ms = 0.0;
  double mean_wall_ms = 0.0;
  double skew_ms = 0.0;         // max - min wall: the straggler penalty
  double comm_wait_frac = 0.0;  // slowest rank's comm_wait / wall
  Bound bound = Bound::kCompute;
};

const char* bound_name(StepAggregate::Bound b);

// Groups `profiles` by step and classifies each step:
//   straggler-bound  if skew > 25% of the mean wall (rank imbalance
//                    dominates: the slowest rank is the critical path),
//   comm-bound       else if the slowest rank spent > 30% of its wall
//                    blocked on communication,
//   compute-bound    otherwise.
// Results are ordered by step. Profiles may arrive in any order.
std::vector<StepAggregate> aggregate_steps(
    std::span<const StepProfile> profiles);

// --- online α–β link profiler ---

// Least-squares fit of one directed link's cost model t(n) = α + n · s
// where s = 1/bandwidth (µs per byte).
struct LinkFit {
  int src = 0;
  int dst = 0;
  int64_t samples = 0;
  double alpha_us = 0.0;      // fitted latency α (mean cost when degenerate)
  double bytes_per_us = 0.0;  // fitted bandwidth (0 if degenerate)
  // True when the samples carry no identifiable slope — fewer than two
  // observations, or zero byte-size variance (every sample the same size,
  // which drives the least-squares determinant to ~0 and would otherwise
  // amplify float noise into a garbage bandwidth). Degenerate fits report
  // α = mean cost and bandwidth = 0.
  bool degenerate = false;

  double gbps() const { return bytes_per_us * 8e6 / 1e9; }
};

// Streaming per-(src,dst) regression over (bytes, µs) samples. The fabric
// feeds it from deliveries when enabled; enabling costs one relaxed load
// per delivery when off. Thread-safe.
class LinkProfiler {
 public:
  void set_enabled(bool enabled);
  bool enabled() const;

  // Records one message of `bytes` over src→dst taking `micros`.
  void record(int src, int dst, int64_t bytes, double micros);

  // Fit for one link; samples == 0 when the link was never seen.
  LinkFit fit(int src, int dst) const;

  // All links with at least `min_samples` observations, ordered (src, dst).
  std::vector<LinkFit> fits(int64_t min_samples = 2) const;

  // Drops every sample (the enabled flag is untouched).
  void reset();

 private:
  struct Stats {
    int64_t n = 0;
    double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  };
  static LinkFit solve(int src, int dst, const Stats& s);

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::map<std::pair<int, int>, Stats> links_;
};

// Process-global profiler instance (the fabric records into this one).
LinkProfiler& link_profiler();

}  // namespace embrace::obs
