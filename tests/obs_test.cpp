// Tests for the observability subsystem: tracer (span nesting, concurrent
// merged export, ring overflow), metrics (histogram bucket edges, reset
// semantics, JSON dump), and the scheduler span / ExecRecord agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "comm/communicator.h"
#include "sched/negotiated_scheduler.h"

namespace embrace::obs {
namespace {

std::vector<ExportedEvent> events_named(const std::string& name) {
  std::vector<ExportedEvent> out;
  for (auto& e : exported_events()) {
    if (e.name == name) out.push_back(e);
  }
  return out;
}

// Structural JSON sanity: balanced braces/brackets outside strings, string
// state closed at the end. Catches broken escaping and truncated output.
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

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(true);
    reset_tracing();
  }
  void TearDown() override { set_tracing_enabled(false); }
};

TEST_F(TracingTest, DisabledEmitsNothing) {
  set_tracing_enabled(false);
  { ScopedSpan span("invisible"); }
  emit_instant("also-invisible");
  EXPECT_TRUE(events_named("invisible").empty());
  EXPECT_TRUE(events_named("also-invisible").empty());
}

TEST_F(TracingTest, SpanNestingAndOrdering) {
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner1");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      ScopedSpan inner("inner2");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto outer = events_named("outer");
  const auto inner1 = events_named("inner1");
  const auto inner2 = events_named("inner2");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner1.size(), 1u);
  ASSERT_EQ(inner2.size(), 1u);
  // Children are contained in the parent and ordered.
  EXPECT_GE(inner1[0].ts_us, outer[0].ts_us);
  EXPECT_LE(inner1[0].ts_us + inner1[0].dur_us, inner2[0].ts_us);
  EXPECT_LE(inner2[0].ts_us + inner2[0].dur_us,
            outer[0].ts_us + outer[0].dur_us);
  EXPECT_GE(inner1[0].dur_us, 1000.0);
}

TEST_F(TracingTest, InstantEventCarriesArgs) {
  emit_instant("split", "prior", 7, "delayed", 9);
  const auto evs = events_named("split");
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].phase, 'i');
  ASSERT_NE(evs[0].arg1_name, nullptr);
  EXPECT_STREQ(evs[0].arg1_name, "prior");
  EXPECT_EQ(evs[0].arg1, 7);
  ASSERT_NE(evs[0].arg2_name, nullptr);
  EXPECT_STREQ(evs[0].arg2_name, "delayed");
  EXPECT_EQ(evs[0].arg2, 9);
}

TEST_F(TracingTest, BindThreadTagsEventsAndLogLines) {
  std::thread t([] {
    bind_thread(3, "worker");
    EXPECT_EQ(thread_rank(), 3);
    EXPECT_EQ(log_rank(), 3);
    emit_instant("tagged");
  });
  t.join();
  const auto evs = events_named("tagged");
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].pid, 3);
}

TEST_F(TracingTest, ConcurrentEmissionProducesValidMergedTrace) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      bind_thread(i % 4, "stress");
      for (int k = 0; k < kSpansPerThread; ++k) {
        ScopedSpan span("w", "k", k);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto evs = events_named("w");
  EXPECT_EQ(evs.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  std::set<int> tids;
  for (const auto& e : evs) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  // Export is sorted by timestamp.
  const auto all = exported_events();
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const auto& a, const auto& b) { return a.ts_us < b.ts_us; }));
  EXPECT_TRUE(json_structurally_valid(chrome_trace_json()));
}

TEST_F(TracingTest, RingKeepsNewestEventsOnOverflow) {
  constexpr int kEmit = 20000;  // exceeds the per-thread ring capacity
  std::thread t([] {
    bind_thread(0, "flood");
    for (int k = 0; k < kEmit; ++k) emit_instant("flood", "k", k);
  });
  t.join();
  const auto evs = events_named("flood");
  ASSERT_FALSE(evs.empty());
  EXPECT_LT(evs.size(), static_cast<size_t>(kEmit));
  EXPECT_GT(trace_dropped_count(), 0);
  EXPECT_EQ(static_cast<int64_t>(evs.size()) + trace_dropped_count(), kEmit);
  // Drop-oldest: the latest event must survive.
  int64_t max_k = -1;
  for (const auto& e : evs) max_k = std::max(max_k, e.arg1);
  EXPECT_EQ(max_k, kEmit - 1);
}

TEST_F(TracingTest, NamesAreJsonEscaped) {
  emit_instant("quote\"and\\slash");
  const std::string json = chrome_trace_json();
  EXPECT_TRUE(json_structurally_valid(json));
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
}

// --- metrics ---

TEST(Metrics, CounterAndGaugeBasics) {
  Counter& c = counter("test.counter.basics");
  const int64_t before = c.value();
  c.add(5);
  c.increment();
  EXPECT_EQ(c.value(), before + 6);
  // Same name resolves to the same instance.
  EXPECT_EQ(&counter("test.counter.basics"), &c);

  Gauge& g = gauge("test.gauge.basics");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Metrics, HistogramBucketEdges) {
  const double edges[] = {1.0, 2.0, 4.0};
  Histogram& h = histogram("test.hist.edges", edges);
  metrics().reset();  // isolate from any earlier run in this binary
  // le-semantics: v lands in the first bucket with v <= edge.
  for (double v : {0.5, 1.0}) h.observe(v);   // -> le=1
  for (double v : {1.5, 2.0}) h.observe(v);   // -> le=2
  for (double v : {3.0, 4.0}) h.observe(v);   // -> le=4
  h.observe(5.0);                             // -> +Inf
  const auto s = h.snapshot();
  ASSERT_EQ(s.upper_edges, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(s.bucket_counts, (std::vector<int64_t>{2, 2, 2, 1}));
  EXPECT_EQ(s.count, 7);
  EXPECT_DOUBLE_EQ(s.sum, 17.0);
}

TEST(Metrics, ResetZeroesButKeepsHandles) {
  Counter& c = counter("test.counter.reset");
  c.add(41);
  metrics().reset();
  EXPECT_EQ(c.value(), 0);
  c.increment();
  EXPECT_EQ(c.value(), 1);
  EXPECT_EQ(metrics_snapshot().counters.at("test.counter.reset"), 1);
}

TEST(Metrics, JsonDumpIsValidAndComplete) {
  counter("test.json.counter{label=x}").add(3);
  gauge("test.json.gauge").set(1.25);
  const double edges[] = {10.0};
  histogram("test.json.hist", edges).observe(99.0);
  const std::string json = metrics_json();
  EXPECT_TRUE(json_structurally_valid(json));
  EXPECT_NE(json.find("test.json.counter{label=x}"), std::string::npos);
  EXPECT_NE(json.find("test.json.gauge"), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
}

TEST(Metrics, HistogramRejectsMismatchedEdges) {
  const double edges[] = {1.0, 2.0};
  histogram("test.hist.mismatch", edges);
  const double other[] = {3.0};
  EXPECT_THROW(histogram("test.hist.mismatch", other), Error);
}

TEST(Metrics, QuantileInterpolatesWithinBuckets) {
  MetricsRegistry reg;
  const double edges[] = {10.0, 20.0, 40.0};
  Histogram& h = reg.histogram("q", edges);
  for (int i = 0; i < 4; ++i) h.observe(5.0);   // bucket le=10
  for (int i = 0; i < 4; ++i) h.observe(15.0);  // bucket le=20
  for (int i = 0; i < 2; ++i) h.observe(30.0);  // bucket le=40
  const auto s = h.snapshot();
  ASSERT_EQ(s.count, 10);
  // Rank 2 of 10 sits halfway through the first bucket, which spans [0, 10].
  EXPECT_DOUBLE_EQ(s.quantile(0.2), 5.0);
  // Rank 5 is one observation into the second bucket's four: [10, 20] at 1/4.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 12.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);
  // Monotone in q.
  EXPECT_LE(s.quantile(0.5), s.quantile(0.95));
  EXPECT_LE(s.quantile(0.95), s.quantile(0.99));
}

TEST(Metrics, QuantileEdgeCases) {
  MetricsRegistry reg;
  const double edges[] = {10.0};
  Histogram& h = reg.histogram("q.edge", edges);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);  // empty
  h.observe(99.0);  // lands in +Inf: quantile reports the observed max
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 99.0);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(1.0), 99.0);
}

// Regression (overflow-bucket quantile underreporting): when every sample
// exceeds the top finite edge, the target rank of ANY quantile lands in the
// +Inf overflow bucket. The old code returned the last finite edge — here
// 10ms for samples that all took 250–900ms, underreporting p95/p99 by 25×
// or more and hiding exactly the tail stalls the histogram exists to
// surface. The fix tracks the largest observation and reports that instead
// (the tightest upper bound the histogram can still honestly claim).
TEST(Metrics, QuantileOverflowBucketReportsObservedMaxNotTopEdge) {
  MetricsRegistry reg;
  const double edges[] = {1.0, 5.0, 10.0};
  Histogram& h = reg.histogram("q.overflow", edges);
  for (double v : {250.0, 400.0, 900.0, 317.5}) h.observe(v);
  const auto s = h.snapshot();
  ASSERT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.max, 900.0);
  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), 900.0) << "q=" << q;
  }
  // Mixed case: ranks that resolve inside finite buckets are untouched by
  // the fix; only overflow-bucket ranks report the max.
  for (int i = 0; i < 12; ++i) h.observe(0.5);  // 12 of 16 in bucket le=1
  const auto s2 = h.snapshot();
  EXPECT_LE(s2.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s2.quantile(0.99), 900.0);
  // A registry reset clears the tracked max along with the buckets: a new
  // overflow sample reports its own magnitude, not the stale 900.
  reg.reset();
  h.observe(20.0);
  EXPECT_DOUBLE_EQ(h.snapshot().max, 20.0);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 20.0);
}

TEST(Metrics, JsonReportsQuantiles) {
  MetricsRegistry reg;
  const double edges[] = {10.0, 20.0};
  reg.histogram("q.json", edges).observe(15.0);
  const std::string json = reg.json();
  EXPECT_TRUE(json_structurally_valid(json));
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Metrics, JsonEscapesControlCharactersAndNonFinite) {
  MetricsRegistry reg;
  // A metric name exercising every escape class: quote, backslash, the
  // named control escapes, an arbitrary control byte, and DEL.
  std::string evil = "evil\"\\\n\r\t";
  evil.push_back('\x01');
  evil.push_back('\x7f');
  reg.counter(evil).add(1);
  reg.gauge("nan").set(std::nan(""));
  reg.gauge("inf").set(std::numeric_limits<double>::infinity());
  const std::string json = reg.json();
  EXPECT_TRUE(json_structurally_valid(json));
  EXPECT_NE(json.find("evil\\\"\\\\\\n\\r\\t\\u0001\\u007f"),
            std::string::npos);
  // Raw control bytes must never reach the output (the dump's own
  // formatting newlines are structural, outside any string).
  for (char c : json) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
  // Non-finite doubles are not representable in JSON; they become null.
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(json.find("\"inf\":null"), std::string::npos);
}

TEST(Metrics, ConcurrentObserveVsSnapshotKeepsCountConsistent) {
  // count is derived from the bucket loads inside snapshot(), so a snapshot
  // racing with observers can never see count != sum(buckets). Hammer the
  // histogram from several writers while a reader snapshots continuously.
  MetricsRegistry reg;
  const double edges[] = {1.0, 2.0, 3.0};
  Histogram& h = reg.histogram("race", edges);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const auto s = h.snapshot();
      int64_t buckets = 0;
      for (int64_t c : s.bucket_counts) buckets += c;
      ASSERT_EQ(s.count, buckets);
      ASSERT_GE(s.count, last);  // monotone under concurrent observes
      last = s.count;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) h.observe((w + i) % 4 + 0.5);
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(h.snapshot().count, int64_t{kWriters} * kPerWriter);
}

TEST(Metrics, ResetUnderCachedHistogramHandle) {
  MetricsRegistry reg;
  const double edges[] = {1.0, 2.0};
  Histogram& h = reg.histogram("reset.cached", edges);
  h.observe(0.5);
  h.observe(1.5);
  reg.reset();
  // The cached handle stays valid and starts from a clean slate.
  h.observe(1.5);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.bucket_counts, (std::vector<int64_t>{0, 1, 0}));
  EXPECT_DOUBLE_EQ(s.sum, 1.5);
}

TEST(Metrics, WritersReportFailureInsteadOfAborting) {
  EXPECT_FALSE(write_metrics_json("/nonexistent-dir-embrace/m.json"));
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir-embrace/t.json"));
  const std::string path = ::testing::TempDir() + "embrace_metrics_ok.json";
  EXPECT_TRUE(write_metrics_json(path));
  std::remove(path.c_str());
}

// --- scheduler integration ---

TEST(SchedulerTrace, SpansMatchExecRecordTimeline) {
  set_tracing_enabled(true);
  reset_tracing();
  comm::Fabric fabric(1);
  sched::NegotiatedScheduler sched(comm::Communicator(fabric, 0));
  // Park the comm thread so a/b/c are all queued when it picks; their
  // priorities then fix the execution (and span) order.
  sched.submit(
      [] {
        sched::OpDesc d;
        d.name = "warmup";  // no "t/" prefix: filtered out of the spans
        d.priority = -1.0;
        return d;
      }(),
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); });
  double priority = 0.0;
  for (const char* name : {"t/a", "t/b", "t/c"}) {
    sched::OpDesc d;
    d.name = name;
    d.priority = priority++;
    sched.submit(std::move(d), [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    });
  }
  sched.shutdown();
  std::vector<sched::ExecRecord> records;
  for (const auto& r : sched.records()) {
    if (r.name.rfind("t/", 0) == 0) records.push_back(r);
  }
  ASSERT_EQ(records.size(), 3u);

  std::vector<ExportedEvent> spans;
  for (const auto& e : exported_events()) {
    if (e.name.rfind("t/", 0) == 0) spans.push_back(e);
  }
  ASSERT_EQ(spans.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    // Same completion order.
    EXPECT_EQ(spans[i].name, records[i].name);
    // Same duration: both views are fed by one pair of clock reads, so they
    // agree to rounding (records are seconds, spans microseconds).
    EXPECT_NEAR(spans[i].dur_us, (records[i].end - records[i].start) * 1e6,
                1.0);
    if (i > 0) {
      // Same inter-op gaps, modulo the different epochs.
      EXPECT_NEAR(spans[i].ts_us - spans[i - 1].ts_us,
                  (records[i].start - records[i - 1].start) * 1e6, 1.0);
    }
  }
  set_tracing_enabled(false);
}

}  // namespace
}  // namespace embrace::obs
