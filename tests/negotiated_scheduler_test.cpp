// Tests for the negotiated (Horovod-coordinator-style) priority scheduler:
// cross-rank order agreement, priority semantics, FIFO mode, collective op
// bodies, and shutdown discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "comm/cluster.h"
#include "common/error.h"
#include "sched/negotiated_scheduler.h"

namespace embrace::sched {
namespace {

using comm::Communicator;
using comm::run_cluster;

// Typed-submit shorthand: the tests only vary name and priority.
Handle submit(NegotiatedScheduler& sched, double priority, std::string name,
              std::function<void()> fn) {
  OpDesc d;
  d.name = std::move(name);
  d.priority = priority;
  return sched.submit(std::move(d), std::move(fn));
}

TEST(Negotiated, SingleRankExecutesByPriority) {
  comm::Fabric fabric(1);
  Communicator control(fabric, 0);
  NegotiatedScheduler sched(control);
  std::vector<std::string> order;
  std::mutex m;
  auto body = [&](const char* n) {
    return [&, n] {
      std::lock_guard<std::mutex> lock(m);
      order.emplace_back(n);
    };
  };
  // Park the comm thread on a slow op so all three are queued when it picks.
  auto h0 = submit(sched, 0.0, "warmup", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  submit(sched, 5.0, "mid", body("mid"));
  submit(sched, 9.0, "low", body("low"));
  submit(sched, 1.0, "high", body("high"));
  sched.shutdown();
  EXPECT_EQ(order, (std::vector<std::string>{"high", "mid", "low"}));
}

TEST(Negotiated, TiesBreakBySubmissionOrder) {
  comm::Fabric fabric(1);
  Communicator control(fabric, 0);
  NegotiatedScheduler sched(control);
  std::vector<std::string> order;
  std::mutex m;
  auto body = [&](const char* n) {
    return [&, n] {
      std::lock_guard<std::mutex> lock(m);
      order.emplace_back(n);
    };
  };
  (void)submit(sched, 0.0, "warmup", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  submit(sched, 3.0, "first", body("first"));
  submit(sched, 3.0, "second", body("second"));
  sched.shutdown();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST(Negotiated, AllRanksExecuteInSameOrder) {
  constexpr int kRanks = 4;
  std::vector<std::vector<std::string>> logs(kRanks);
  run_cluster(kRanks, [&](Communicator& comm) {
    NegotiatedScheduler sched(comm.channel(0));
    // Submit in a rank-dependent *time* order (jitter), identical set.
    std::vector<double> prios{7, 3, 9, 1, 5};
    for (size_t i = 0; i < prios.size(); ++i) {
      if (comm.rank() % 2 == 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      submit(sched, prios[i], "op" + std::to_string(i), [] {});
    }
    sched.shutdown();
    for (const auto& r : sched.records()) {
      logs[static_cast<size_t>(comm.rank())].push_back(r.name);
    }
  });
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(logs[static_cast<size_t>(r)], logs[0]) << "rank " << r;
  }
}

TEST(Negotiated, RunsCollectiveBodiesWithoutDeadlock) {
  constexpr int kRanks = 3;
  run_cluster(kRanks, [&](Communicator& comm) {
    Communicator data = comm.channel(1);
    NegotiatedScheduler sched(comm.channel(0));
    std::vector<float> a(9, 1.0f), b(9, 2.0f);
    auto ha = submit(sched, 2.0, "allreduce-a", [&] { data.allreduce(a); });
    auto hb = submit(sched, 1.0, "allreduce-b", [&] { data.allreduce(b); });
    ha.wait();
    hb.wait();
    for (float v : a) ASSERT_FLOAT_EQ(v, 3.0f);
    for (float v : b) ASSERT_FLOAT_EQ(v, 6.0f);
    sched.shutdown();
  });
}

TEST(Negotiated, LaggardSubmissionIsWaitedFor) {
  // Rank 0 announces an op that rank 1 has not yet submitted; rank 1's
  // comm thread must wait for the local submission, not crash or skip.
  constexpr int kRanks = 2;
  run_cluster(kRanks, [&](Communicator& comm) {
    Communicator data = comm.channel(1);
    NegotiatedScheduler sched(comm.channel(0));
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    auto h = submit(sched, 1.0, "late", [&] {
      std::vector<float> v(3, 1.0f);
      data.allreduce(v);
    });
    h.wait();
    sched.shutdown();
  });
}

TEST(Negotiated, HandleWaitAndRecords) {
  comm::Fabric fabric(1);
  Communicator control(fabric, 0);
  NegotiatedScheduler sched(control);
  std::atomic<bool> ran{false};
  auto h = submit(sched, 0.0, "op", [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ran.store(true);
  });
  h.wait();
  EXPECT_TRUE(ran.load());
  auto recs = sched.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "op");
  EXPECT_GE(recs[0].end - recs[0].start, 0.009);
  sched.shutdown();
}

TEST(Negotiated, ShutdownDrainsPendingOps) {
  comm::Fabric fabric(1);
  Communicator control(fabric, 0);
  NegotiatedScheduler sched(control);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    submit(sched, static_cast<double>(i), "op" + std::to_string(i),
                 [&] { count.fetch_add(1); });
  }
  sched.shutdown();
  EXPECT_EQ(count.load(), 20);
}

TEST(Negotiated, RejectsDuplicateAndPostShutdownSubmission) {
  comm::Fabric fabric(1);
  Communicator control(fabric, 0);
  NegotiatedScheduler sched(control);
  (void)submit(sched, 0.0, "warmup", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  submit(sched, 1.0, "x", [] {});
  EXPECT_THROW(submit(sched, 2.0, "x", [] {}), Error);
  sched.shutdown();
  EXPECT_THROW(submit(sched, 0.0, "y", [] {}), Error);
}

TEST(Negotiated, StepScopedPrioritiesKeepCrossStepOrder) {
  // delayed(s) must run before prior(s+1) when priorities are step-scoped —
  // the invariant the trainer's modified-Adam sequencing relies on.
  comm::Fabric fabric(1);
  Communicator control(fabric, 0);
  NegotiatedScheduler sched(control);
  std::vector<std::string> order;
  std::mutex m;
  auto body = [&](std::string n) {
    return [&, n] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(n);
    };
  };
  (void)submit(sched, -1.0, "warmup", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  submit(sched, 1e6 * 0 + 1e5, "delayed/s0", body("delayed/s0"));
  submit(sched, 1e6 * 1 + 0, "prior/s1", body("prior/s1"));
  submit(sched, 1e6 * 1 + 1e5, "delayed/s1", body("delayed/s1"));
  sched.shutdown();
  EXPECT_EQ(order, (std::vector<std::string>{"delayed/s0", "prior/s1",
                                             "delayed/s1"}));
}

// --- failure propagation (DESIGN.md §8) ---

TEST(NegotiatedFailure, OpExceptionFailsPendingOpsOnAllRanks) {
  constexpr int kRanks = 3;
  run_cluster(kRanks, [&](Communicator& comm) {
    NegotiatedScheduler sched(comm.channel(0));
    // Park the comm thread so boom/after are both queued when it picks.
    (void)submit(sched, 0.0, "warmup", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    auto h_boom =
        submit(sched, 1.0, "boom", [] { throw Error("kaput"); });
    auto h_after =
        submit(sched, 2.0, "after", [] { FAIL() << "must never run"; });
    // The culprit's handle rethrows the original exception...
    EXPECT_THROW(
        {
          try {
            h_boom.wait();
          } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("kaput"), std::string::npos);
            throw;
          }
        },
        Error);
    // ...and the abandoned op fails fast with a SchedulerError naming it,
    // instead of leaving the waiter hung on an op that will never be
    // announced again.
    EXPECT_THROW(
        {
          try {
            h_after.wait();
          } catch (const SchedulerError& e) {
            EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
            throw;
          }
        },
        SchedulerError);
    EXPECT_TRUE(sched.failed());
    EXPECT_THROW(submit(sched, 3.0, "more", [] {}), SchedulerError);
    // Destructor uses the local abort path (peers' schedulers are failed
    // too; no stop-token negotiation is possible).
  });
}

TEST(NegotiatedFailure, AbortFailsPendingOpsWithoutPeerNegotiation) {
  comm::Fabric fabric(1);
  Communicator control(fabric, 0);
  NegotiatedScheduler sched(control);
  std::atomic<bool> warmup_started{false};
  std::atomic<bool> warmup_ran{false};
  (void)submit(sched, 0.0, "warmup", [&] {
    warmup_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    warmup_ran.store(true);
  });
  auto h = submit(sched, 100.0, "never", [] { FAIL() << "must never run"; });
  // Abort only once the comm thread is provably inside the op body, so the
  // "abort joins mid-op" claim below is deterministic.
  while (!warmup_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.abort();
  EXPECT_TRUE(warmup_ran.load()) << "abort joins mid-op, it does not kill it";
  EXPECT_THROW(h.wait(), SchedulerError);
  EXPECT_TRUE(sched.failed());
  EXPECT_THROW(submit(sched, 0.0, "post", [] {}), SchedulerError);
  // Idempotent.
  sched.abort();
}

TEST(NegotiatedFailure, FollowerTimesOutWhenLeaderStopsAnnouncing) {
  // Rank 1 submits an op; rank 0 (the leader) never does, so no
  // announcement ever arrives. With the fabric deadline armed, rank 1's
  // comm thread must fail all pending ops within the budget instead of
  // waiting forever.
  constexpr int kRanks = 2;
  comm::Fabric fabric(kRanks);
  fabric.set_recv_timeout(std::chrono::milliseconds(100));
  run_cluster(fabric, [&](Communicator& comm) {
    NegotiatedScheduler sched(comm.channel(0));
    if (comm.rank() == 1) {
      auto h = submit(sched, 1.0, "orphan", [] { FAIL() << "never announced"; });
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_THROW(
          {
            try {
              h.wait();
            } catch (const SchedulerError& e) {
              EXPECT_NE(std::string(e.what()).find("leader"),
                        std::string::npos);
              throw;
            }
          },
          SchedulerError);
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::seconds(5));
      EXPECT_TRUE(sched.failed());
      sched.abort();
    } else {
      // Give the follower time to hit its deadline, then shut down the idle
      // leader (announces a stop token nobody will read — harmless).
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      sched.shutdown();
    }
  });
}

TEST(NegotiatedFailure, FollowerTimesOutWhenAnnouncedOpNeverSubmitted) {
  // Rank 0 submits and runs an op that rank 1 never submits. Rank 1's comm
  // thread is told to run it; with the fabric deadline armed it must fail
  // within the budget, naming the op and itself, instead of waiting for
  // its local copy forever (which also hung shutdown()).
  constexpr int kRanks = 2;
  comm::Fabric fabric(kRanks);
  fabric.set_recv_timeout(std::chrono::milliseconds(100));
  run_cluster(fabric, [&](Communicator& comm) {
    NegotiatedScheduler sched(comm.channel(0));
    if (comm.rank() == 0) {
      submit(sched, 1.0, "ghost", [] {}).wait();
      sched.shutdown();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (!sched.failed() &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(sched.failed());
    EXPECT_THROW(
        {
          try {
            submit(sched, 2.0, "late", [] {});
          } catch (const SchedulerError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'ghost'"), std::string::npos) << what;
            EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
            throw;
          }
        },
        SchedulerError);
    sched.abort();
  });
}

TEST(NegotiatedFailure, FollowerFailsOpsPendingAtStopToken) {
  // Rank 1 submits an op that rank 0 never submits, and rank 0 shuts down:
  // its drained queue sends the stop token. Rank 1's op can never run, so
  // it must fail with a typed error instead of leaving its waiter hung.
  constexpr int kRanks = 2;
  std::atomic<bool> submitted{false};
  run_cluster(kRanks, [&](Communicator& comm) {
    NegotiatedScheduler sched(comm.channel(0));
    if (comm.rank() == 0) {
      while (!submitted) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      sched.shutdown();
      return;
    }
    auto h = submit(sched, 1.0, "orphan", [] { FAIL() << "never announced"; });
    submitted = true;
    EXPECT_THROW(
        {
          try {
            h.wait();
          } catch (const SchedulerError& e) {
            EXPECT_NE(std::string(e.what()).find("stopped by the leader"),
                      std::string::npos)
                << e.what();
            throw;
          }
        },
        SchedulerError);
    EXPECT_TRUE(sched.failed());
    sched.abort();
  });
}

}  // namespace
}  // namespace embrace::sched
