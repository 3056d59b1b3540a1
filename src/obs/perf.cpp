#include "obs/perf.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace embrace::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kForward: return "forward";
    case Phase::kBackward: return "backward";
    case Phase::kOptimizer: return "optimizer";
    case Phase::kCommIssue: return "comm_issue";
    case Phase::kCommWait: return "comm_wait";
    case Phase::kOther: return "other";
  }
  return "unknown";
}

void StepProfile::to_floats(std::span<float> out) const {
  EMBRACE_CHECK(out.size() >= kFloats,
                << "StepProfile::to_floats needs " << kFloats << " floats");
  out[0] = static_cast<float>(wall_ms);
  for (int i = 0; i < kNumPhases; ++i) {
    out[1 + static_cast<size_t>(i)] = static_cast<float>(phase_ms[i]);
  }
}

StepProfile StepProfile::from_floats(int rank, int step,
                                     std::span<const float> in) {
  EMBRACE_CHECK(in.size() >= kFloats,
                << "StepProfile::from_floats needs " << kFloats << " floats");
  StepProfile p;
  p.rank = rank;
  p.step = step;
  p.wall_ms = static_cast<double>(in[0]);
  for (int i = 0; i < kNumPhases; ++i) {
    p.phase_ms[i] = static_cast<double>(in[1 + static_cast<size_t>(i)]);
  }
  return p;
}

StepAccounting::StepAccounting()
    : start_(std::chrono::steady_clock::now()) {}

void StepAccounting::add(Phase p, double ms) {
  phase_ms_[static_cast<int>(p)] += std::max(ms, 0.0);
}

StepProfile StepAccounting::finish(int rank, int step) const {
  StepProfile p;
  p.rank = rank;
  p.step = step;
  const auto end = std::chrono::steady_clock::now();
  p.wall_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  double attributed = 0.0;
  for (int i = 0; i < kNumPhases; ++i) {
    if (i == static_cast<int>(Phase::kOther)) continue;
    p.phase_ms[i] = phase_ms_[i];
    attributed += phase_ms_[i];
  }
  // Fold the unattributed remainder into kOther so the phase vector sums to
  // the wall time; nested/overlapping scopes can push `attributed` past the
  // wall, in which case kOther clamps at zero.
  p.phase_ms[static_cast<int>(Phase::kOther)] =
      std::max(p.wall_ms - attributed, 0.0);
  return p;
}

const char* bound_name(StepAggregate::Bound b) {
  switch (b) {
    case StepAggregate::Bound::kCompute: return "compute";
    case StepAggregate::Bound::kComm: return "comm";
    case StepAggregate::Bound::kStraggler: return "straggler";
  }
  return "unknown";
}

std::vector<StepAggregate> aggregate_steps(
    std::span<const StepProfile> profiles) {
  std::map<int, std::vector<const StepProfile*>> by_step;
  for (const StepProfile& p : profiles) by_step[p.step].push_back(&p);

  std::vector<StepAggregate> out;
  out.reserve(by_step.size());
  for (const auto& [step, rows] : by_step) {
    StepAggregate a;
    a.step = step;
    a.min_wall_ms = rows.front()->wall_ms;
    const StepProfile* slowest = rows.front();
    double sum = 0.0;
    for (const StepProfile* p : rows) {
      sum += p->wall_ms;
      a.min_wall_ms = std::min(a.min_wall_ms, p->wall_ms);
      if (p->wall_ms > slowest->wall_ms) slowest = p;
    }
    a.max_wall_ms = slowest->wall_ms;
    a.mean_wall_ms = sum / static_cast<double>(rows.size());
    a.skew_ms = a.max_wall_ms - a.min_wall_ms;
    a.slowest_rank = slowest->rank;
    a.comm_wait_frac =
        a.max_wall_ms > 0.0 ? slowest->stall_ms() / a.max_wall_ms : 0.0;
    if (a.mean_wall_ms > 0.0 && a.skew_ms > 0.25 * a.mean_wall_ms) {
      a.bound = StepAggregate::Bound::kStraggler;
    } else if (a.comm_wait_frac > 0.30) {
      a.bound = StepAggregate::Bound::kComm;
    } else {
      a.bound = StepAggregate::Bound::kCompute;
    }
    out.push_back(a);
  }
  return out;
}

void LinkProfiler::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool LinkProfiler::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

void LinkProfiler::record(int src, int dst, int64_t bytes, double micros) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Stats& s = links_[{src, dst}];
  const double x = static_cast<double>(bytes);
  s.n += 1;
  s.sum_x += x;
  s.sum_y += micros;
  s.sum_xx += x * x;
  s.sum_xy += x * micros;
}

LinkFit LinkProfiler::solve(int src, int dst, const Stats& s) {
  LinkFit f;
  f.src = src;
  f.dst = dst;
  f.samples = s.n;
  if (s.n == 0) return f;
  const double n = static_cast<double>(s.n);
  const double det = n * s.sum_xx - s.sum_x * s.sum_x;
  // The determinant is n² · Var(bytes); with zero byte-size variance (all
  // samples one size class) it is exactly 0 in real arithmetic but can come
  // out as a tiny positive float residue, whose division would then launder
  // rounding noise into an arbitrary bytes_per_us. A relative threshold
  // against n·Σx² (the determinant's own magnitude scale) catches both the
  // exact and the residue case.
  if (s.n < 2 || det <= 1e-9 * n * s.sum_xx) {
    // No slope is identifiable: report the mean cost as pure latency and
    // flag the fit.
    f.alpha_us = s.sum_y / n;
    f.degenerate = true;
    return f;
  }
  const double slope = (n * s.sum_xy - s.sum_x * s.sum_y) / det;  // µs/byte
  f.alpha_us = (s.sum_y - slope * s.sum_x) / n;
  f.bytes_per_us = slope > 0.0 ? 1.0 / slope : 0.0;
  f.alpha_us = std::max(f.alpha_us, 0.0);
  return f;
}

LinkFit LinkProfiler::fit(int src, int dst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = links_.find({src, dst});
  if (it == links_.end()) {
    LinkFit f;
    f.src = src;
    f.dst = dst;
    return f;
  }
  return solve(src, dst, it->second);
}

std::vector<LinkFit> LinkProfiler::fits(int64_t min_samples) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LinkFit> out;
  for (const auto& [key, stats] : links_) {
    if (stats.n < min_samples) continue;
    out.push_back(solve(key.first, key.second, stats));
  }
  return out;
}

void LinkProfiler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  links_.clear();
}

LinkProfiler& link_profiler() {
  static LinkProfiler* g = new LinkProfiler();  // leaked, exit-safe
  return *g;
}

}  // namespace embrace::obs
