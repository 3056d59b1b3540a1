#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double tail_percentile_for(int64_t n) {
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<int64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n - rank >= 10) return pct;
  }
  return 50.0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  s.p50 = percentile(samples, 50.0);
  s.tail_pct = tail_percentile_for(s.n);
  s.tail = percentile(samples, s.tail_pct);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  LineFit f;
  const size_t n = std::min(x.size(), y.size());
  f.n = static_cast<int64_t>(n);
  if (n == 0) return f;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx <= 0.0) {  // one distinct size: only the mean cost is identified
    f.alpha = my;
    return f;
  }
  f.beta = sxy / sxx;
  f.alpha = my - f.beta * mx;
  if (n < 3) return f;
  double sse = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double r = y[i] - (f.alpha + f.beta * x[i]);
    sse += r * r;
  }
  const double s2 = sse / static_cast<double>(n - 2);
  f.beta_se = std::sqrt(s2 / sxx);
  f.alpha_se =
      std::sqrt(s2 * (1.0 / static_cast<double>(n) + mx * mx / sxx));
  return f;
}

double residual_frac(double measured, double predicted) {
  return measured > 0.0 ? (measured - predicted) / measured : 0.0;
}

double predict_step_ms(const StepCounts& counts, const LayerCosts& costs) {
  const double us = costs.compute_us + counts.ops * costs.op_us +
                    counts.msgs * costs.alpha_us +
                    counts.bytes * costs.beta_us_per_byte;
  return us / 1e3;
}

std::vector<double> timed_loop(embrace::comm::Communicator& sync, int iters,
                               const std::function<void(int)>& body) {
  using clock = std::chrono::steady_clock;
  std::vector<double> us;
  us.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    sync.barrier();
    const auto t0 = clock::now();
    body(i);
    us.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count());
  }
  sync.barrier();
  return us;
}

std::vector<double> time_kernel(int iters, const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  const auto c0 = clock::now();
  fn();  // warm-up, and calibrates the batch
  const double once_us =
      std::chrono::duration<double, std::micro>(clock::now() - c0).count();
  const int batch = static_cast<int>(
      std::clamp(std::ceil(20.0 / std::max(once_us, 1e-3)), 1.0, 1000.0));
  std::vector<double> us;
  us.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const auto t0 = clock::now();
    for (int b = 0; b < batch; ++b) fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count() /
        batch);
  }
  return us;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit};
}

Summary Report::timing(const std::string& name,
                       const std::vector<double>& samples,
                       const std::string& unit) {
  const Summary s = note(name, samples, unit);
  set(name, s.p50, unit);
  return s;
}

Summary Report::note(const std::string& name,
                     const std::vector<double>& samples,
                     const std::string& unit) {
  const Summary s = summarize(samples);
  if (s.n == 0) check(false, name + " has no samples");
  timings_[name] = {s, unit};
  return s;
}

void Report::record_run(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED run: %s\n", what.c_str());
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    ++bad_checks_;
    std::fprintf(stderr, "perfbench: FAILED check: %s\n", what.c_str());
  }
}

void Report::print_table() const {
  std::printf("%-48s %12s %12s %7s %6s %s\n", "timing", "p50", "tail", "pct",
              "n", "unit");
  for (const auto& [name, entry] : timings_) {
    const auto& [s, unit] = entry;
    std::printf("%-48s %12.3f %12.3f %7.1f %6lld %s\n", name.c_str(), s.p50,
                s.tail, s.tail_pct, static_cast<long long>(s.n),
                unit.c_str());
  }
  std::printf("\n%-48s %16s %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : metrics_) {
    std::printf("%-48s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

std::string Report::result_json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
