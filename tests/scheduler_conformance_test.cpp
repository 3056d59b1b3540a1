// Scheduler conformance suite: every test body runs on every rank of a
// NegotiatedScheduler cluster at worlds 1 through 4 — typed OpDesc submit,
// chunked slices, preemption at chunk boundaries, failure propagation,
// drain, name reuse, and overlap with the training thread. At world 1 the
// leader's own queue is the whole story; at worlds 2-4 followers execute
// the leader's announced order, so each body's per-rank expectations also
// pin that order. A final multi-rank test pins the preemption contract
// where it matters: a chunked dense transfer through a 4-rank
// NegotiatedScheduler interrupted by a high-priority op at a chunk
// boundary, identically on every rank.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "sched/negotiated_scheduler.h"

namespace embrace::sched {
namespace {

using RankBody = std::function<void(NegotiatedScheduler&)>;

// Runs `body` on every rank of a GetParam()-rank cluster against that
// rank's scheduler. The barrier lines the ranks up first, so timing-based
// bodies measure from a common start.
struct Conformance : ::testing::TestWithParam<int> {
  void run(const RankBody& body) const {
    comm::Fabric fabric(GetParam());
    comm::run_cluster(fabric, [&](comm::Communicator& c) {
      NegotiatedScheduler scheduler(c.channel(0));
      c.channel(1).barrier();
      body(scheduler);
      if (scheduler.failed()) {
        scheduler.abort();
      } else {
        scheduler.shutdown();
      }
    });
  }
};

OpDesc desc(std::string name, double priority, OpKind kind = OpKind::kOther) {
  OpDesc d;
  d.name = std::move(name);
  d.priority = priority;
  d.kind = kind;
  return d;
}

int64_t preemptions() { return obs::counter("sched.preemptions").value(); }

TEST_P(Conformance, TypedSubmitExecutesAndRecords) {
  run([](NegotiatedScheduler& s) {
    std::atomic<bool> ran{false};
    Handle h = s.submit(desc("op", 1.0), [&] { ran = true; });
    h.wait();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(h.done());
    EXPECT_FALSE(h.failed());
    s.drain();
    const auto records = s.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].name, "op");
    EXPECT_LE(records[0].start, records[0].end);
  });
}

TEST_P(Conformance, BackloggedOpsRunInPriorityOrder) {
  run([](NegotiatedScheduler& s) {
    // Gate the comm thread so the backlog builds up, then check the
    // drained order is by (priority, submission seq), not submission order.
    std::atomic<bool> release{false};
    s.submit(desc("gate", 0.0), [&] {
      while (!release) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    s.submit(desc("c", 3.0), [] {});
    s.submit(desc("a", 1.0), [] {});
    s.submit(desc("b", 2.0), [] {});
    s.submit(desc("a2", 1.0), [] {});  // ties break by submission order
    release = true;
    s.drain();
    const auto records = s.records();
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].name, "gate");
    EXPECT_EQ(records[1].name, "a");
    EXPECT_EQ(records[2].name, "a2");
    EXPECT_EQ(records[3].name, "b");
    EXPECT_EQ(records[4].name, "c");
  });
}

TEST_P(Conformance, ChunkedSlicesRunInOrder) {
  run([](NegotiatedScheduler& s) {
    std::vector<int64_t> seen;
    Handle h = s.submit(desc("chunked", 1.0), 5,
                        [&](int64_t i) { seen.push_back(i); });
    h.wait();
    EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4}));
    // One completion record for the whole op, not one per slice.
    s.drain();
    ASSERT_EQ(s.records().size(), 1u);
    EXPECT_EQ(s.records()[0].name, "chunked");
  });
}

TEST_P(Conformance, HighPriorityOpPreemptsChunkedAtSliceBoundary) {
  const int64_t preempt0 = preemptions();
  run([](NegotiatedScheduler& s) {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    Handle dense = s.submit(
        desc("dense", 10.0, OpKind::kDense), 4, [&](int64_t i) {
          if (i == 0) {
            started = true;
            while (!release) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
        });
    // Submit the urgent op while slice 0 is still executing: the scheduler
    // must run it before dense's remaining slices.
    while (!started) std::this_thread::sleep_for(std::chrono::microseconds(200));
    Handle hot = s.submit(desc("hot", 0.0, OpKind::kSparsePrior), [] {});
    release = true;
    hot.wait();
    dense.wait();
    s.drain();
    const auto records = s.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "hot");
    EXPECT_EQ(records[1].name, "dense");
  });
  // Counted by the leader only, whatever the world size.
  EXPECT_EQ(preemptions() - preempt0, 1);
}

TEST_P(Conformance, SliceFailureFailsOpAndBacklog) {
  run([](NegotiatedScheduler& s) {
    std::vector<int64_t> seen;
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    Handle bad = s.submit(desc("bad", 1.0), 4, [&](int64_t i) {
      seen.push_back(i);
      if (i == 0) {
        started = true;
        while (!release) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      if (i == 1) throw Error("boom");
    });
    // Park the comm thread in slice 0 so "behind" is enqueued before the
    // failure happens (no submit-vs-fail race).
    while (!started) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Handle behind = s.submit(desc("behind", 2.0), [] {});
    release = true;
    EXPECT_THROW(bad.wait(), Error);
    EXPECT_THROW(behind.wait(), SchedulerError);
    // Slices after the throwing one never ran.
    EXPECT_EQ(seen, (std::vector<int64_t>{0, 1}));
    EXPECT_TRUE(s.failed());
    EXPECT_THROW(s.submit(desc("late", 0.0), [] {}), SchedulerError);
    EXPECT_THROW(s.drain(), Error);
  });
}

TEST_P(Conformance, DrainWaitsForEverySubmittedOp) {
  run([](NegotiatedScheduler& s) {
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      s.submit(desc("op" + std::to_string(i), static_cast<double>(i % 3)),
               [&] { ++ran; });
    }
    s.drain();
    EXPECT_EQ(ran, 16);
    EXPECT_EQ(s.records().size(), 16u);
  });
}

TEST_P(Conformance, DrainDoesNotWedgeWhenOpFailsMidDrain) {
  run([](NegotiatedScheduler& s) {
    s.submit(desc("slow_boom", 0.0), [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      throw Error("late failure");
    });
    s.submit(desc("abandoned", 1.0), [] { FAIL() << "must never run"; });
    EXPECT_THROW(s.drain(), Error);
  });
}

TEST_P(Conformance, InvalidSubmissionsAreRejected) {
  run([](NegotiatedScheduler& s) {
    EXPECT_THROW(s.submit(desc("zero-slices", 0.0), 0, [](int64_t) {}),
                 Error);
    // Park the comm thread so "dup" is still pending for the name check.
    std::atomic<bool> release{false};
    Handle gate = s.submit(desc("gate", 0.0), [&] {
      while (!release) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    Handle h = s.submit(desc("dup", 1.0), [] {});
    EXPECT_THROW(s.submit(desc("dup", 2.0), [] {}), Error);
    release = true;
    gate.wait();
    h.wait();
  });
}

TEST_P(Conformance, RejectsDuplicateNameUntilExecuted) {
  run([](NegotiatedScheduler& s) {
    // Park the comm thread so the first "a" is still pending for the check.
    s.submit(desc("warmup", -1.0), [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    s.submit(desc("a", 1.0), [] {});
    EXPECT_THROW(s.submit(desc("a", 2.0), [] {}), Error);
    s.drain();
    // Same name may be submitted again once executed.
    EXPECT_NO_THROW(s.submit(desc("a", 1.0), [] {}));
    s.drain();
  });
}

TEST_P(Conformance, OverlapsWithMainThread) {
  run([](NegotiatedScheduler& s) {
    // The comm thread must run concurrently: total wall time for a 40ms
    // comm op + 40ms of training-thread work should be well under 80ms.
    const auto t0 = std::chrono::steady_clock::now();
    Handle h = s.submit(desc("comm", 0.0), [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));  // "compute"
    h.wait();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed, 0.075);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, Conformance, ::testing::Values(1, 2, 3, 4),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return "World" + std::to_string(param_info.param);
    });

// The end-to-end preemption contract: on a real 4-rank cluster, a chunked
// dense AllReduce driven slice-by-slice through the NegotiatedScheduler is
// preempted at a chunk boundary by a late high-priority op — on every rank,
// at the same boundary (the leader's announcement stream is the execution
// order), with the dense result still bitwise-correct.
TEST(NegotiatedChunked, HighPriorityOpPreemptsDenseTransferOnAllRanks) {
  constexpr int kRanks = 4;
  constexpr int64_t kElems = 1 << 14;
  constexpr int64_t kChunk = 1024;
  const int64_t preempt0 = obs::counter("sched.preemptions").value();
  std::mutex mu;
  std::vector<std::vector<ExecRecord>> logs(kRanks);
  comm::Fabric fabric(kRanks);
  comm::run_cluster(fabric, [&](comm::Communicator& comm) {
    comm::Communicator data_ch = comm.channel(1);
    NegotiatedScheduler scheduler(comm.channel(0));
    std::vector<float> dense(kElems,
                             static_cast<float>(comm.rank() + 1));
    std::vector<float> hot{1.0f};
    const int64_t slices =
        comm::ChunkedAllReduce::num_quanta(kElems, kRanks, kChunk);
    ASSERT_GT(slices, 4);
    auto cursor =
        std::make_shared<std::optional<comm::ChunkedAllReduce>>();
    OpDesc dense_desc = desc("dense", 10.0, OpKind::kDense);
    Handle dense_h =
        scheduler.submit(dense_desc, slices, [&, cursor](int64_t i) {
          if (i == 0) {
            cursor->emplace(data_ch, std::span<float>(dense), kChunk);
          }
          (*cursor)->run_quantum(i);
          // Stretch each quantum so the hot op reliably lands mid-flight.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Handle hot_h = scheduler.submit(desc("hot", 0.0, OpKind::kSparsePrior),
                                    [&] { data_ch.allreduce(hot); });
    hot_h.wait();
    dense_h.wait();
    scheduler.shutdown();
    // The chunked transfer still produced the full ring-AllReduce sum.
    const float expected = static_cast<float>(kRanks * (kRanks + 1) / 2);
    for (const float v : dense) ASSERT_EQ(v, expected);
    EXPECT_EQ(hot[0], static_cast<float>(kRanks));
    std::lock_guard<std::mutex> lock(mu);
    logs[static_cast<size_t>(comm.rank())] = scheduler.records();
  });
  // Every rank executed hot before dense completed (same announced order).
  for (int r = 0; r < kRanks; ++r) {
    const auto& log = logs[static_cast<size_t>(r)];
    ASSERT_EQ(log.size(), 2u) << "rank " << r;
    EXPECT_EQ(log[0].name, "hot") << "rank " << r;
    EXPECT_EQ(log[1].name, "dense") << "rank " << r;
  }
  // Counted once (leader only), not once per rank.
  EXPECT_GE(obs::counter("sched.preemptions").value() - preempt0, 1);
}

}  // namespace
}  // namespace embrace::sched
