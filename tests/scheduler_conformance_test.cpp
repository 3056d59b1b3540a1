// Scheduler conformance suite: every test body runs on every rank of a
// NegotiatedScheduler cluster at worlds 1 through 4 — typed OpDesc submit,
// sliced bodies run as one op, whole-unit execution, op groups, replay of
// repeated groups without announcements, failure propagation, drain, name
// reuse, and overlap with the training thread.
// At world 1 the leader's own queue is the whole story; at worlds 2-4
// followers execute the leader's announced order, so each body's per-rank
// expectations also pin that order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "sched/negotiated_scheduler.h"

namespace embrace::sched {
namespace {

using RankBody = std::function<void(NegotiatedScheduler&)>;
// A body that also sees its rank's communicator (rank, fabric counters).
using CommBody =
    std::function<void(NegotiatedScheduler&, comm::Communicator&)>;

// Runs `body` on every rank of a GetParam()-rank cluster against that
// rank's scheduler. The barrier lines the ranks up first, so timing-based
// bodies measure from a common start.
struct Conformance : ::testing::TestWithParam<int> {
  void run(const RankBody& body) const {
    run(CommBody([&](NegotiatedScheduler& s, comm::Communicator&) {
      body(s);
    }));
  }
  // A nonzero `recv_timeout` arms the fabric's receive deadline.
  void run(const CommBody& body,
           std::chrono::microseconds recv_timeout = {}) const {
    comm::Fabric fabric(GetParam());
    fabric.set_recv_timeout(recv_timeout);
    comm::run_cluster(fabric, [&](comm::Communicator& c) {
      NegotiatedScheduler scheduler(c.channel(0));
      c.channel(1).barrier();
      body(scheduler, c);
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

int64_t announcements() {
  return obs::counter("sched.announcements").value();
}

int64_t replayed() { return obs::counter("sched.replayed").value(); }

// Submits step `step`'s op group: one op "<name>/s<step>" per name, with
// `slices` slices each and priorities in name order.
std::vector<Handle> submit_group(NegotiatedScheduler& s, int step,
                                 std::initializer_list<const char*> names,
                                 int64_t slices = 1) {
  std::vector<Handle> handles;
  NegotiatedScheduler::Group group = s.open_group();
  double priority = 10.0 * step;
  for (const char* name : names) {
    handles.push_back(s.submit(
        desc(std::string(name) + "/s" + std::to_string(step), priority++),
        slices, [](int64_t) {}));
  }
  group.close();
  return handles;
}

// Polls until `flag` is set.
void await(const std::atomic<bool>& flag) {
  while (!flag) std::this_thread::sleep_for(std::chrono::microseconds(200));
}

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

TEST_P(Conformance, GroupRunsMembersInPriorityOrderWithOwnRecords) {
  run([](NegotiatedScheduler& s) {
    std::vector<std::string> ran;
    std::vector<int64_t> b_slices;
    auto body = [&](std::string name) {
      return [&ran, name = std::move(name)] { ran.push_back(name); };
    };
    std::vector<Handle> handles;
    {
      NegotiatedScheduler::Group group = s.open_group();
      handles.push_back(s.submit(desc("c", 3.0), body("c")));
      handles.push_back(s.submit(desc("a", 1.0), body("a")));
      handles.push_back(s.submit(desc("b", 2.0), 3, [&](int64_t i) {
        b_slices.push_back(i);
        if (i == 2) ran.push_back("b");
      }));
      handles.push_back(s.submit(desc("a2", 1.0), body("a2")));
      // Handles exist at once, but nothing runs before the group closes.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      for (const Handle& h : handles) {
        EXPECT_TRUE(h.valid());
        EXPECT_FALSE(h.done());
      }
      group.close();
    }
    for (const Handle& h : handles) h.wait();
    s.drain();
    // (priority, submission) order, every slice of each member.
    EXPECT_EQ(ran, (std::vector<std::string>{"a", "a2", "b", "c"}));
    EXPECT_EQ(b_slices, (std::vector<int64_t>{0, 1, 2}));
    const auto records = s.records();
    ASSERT_EQ(records.size(), 4u);
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].name, ran[i]);
      EXPECT_LE(records[i].start, records[i].end);
    }
  });
}

TEST_P(Conformance, GroupIsAnnouncedOnce) {
  const int64_t announced0 = announcements();
  const int world = GetParam();
  run(CommBody([world](NegotiatedScheduler& s, comm::Communicator& c) {
    // Rank 0 is the leader, and the bodies send nothing themselves, so its
    // sent messages are its announcements.
    const auto sent = [&] { return c.fabric().traffic_from(0).messages; };
    const int64_t sent0 = sent();
    {
      NegotiatedScheduler::Group group = s.open_group();
      s.submit(desc("x", 1.0), [] {});
      s.submit(desc("y", 2.0), 4, [](int64_t) {});
      s.submit(desc("z", 3.0), [] {});
      group.close();
    }
    s.drain();
    const int64_t sent1 = sent();
    // A plain sliced op is one unit too: announced once, whatever its
    // slice count.
    s.submit(desc("plain", 1.0), 4, [](int64_t) {});
    s.drain();
    EXPECT_EQ(s.records().size(), 4u);
    if (c.rank() == 0) {
      EXPECT_EQ(sent1 - sent0, world - 1);
      EXPECT_EQ(sent() - sent1, world - 1);
    }
  }));
  // Leader only, stop token excluded; nothing is announced at world 1.
  EXPECT_EQ(announcements() - announced0, world > 1 ? 1 + 1 : 0);
}

TEST_P(Conformance, UrgentOpWaitsForRunningUnit) {
  run([](NegotiatedScheduler& s) {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    NegotiatedScheduler::Group group = s.open_group();
    Handle g1 = s.submit(desc("g1", 10.0), 4, [&](int64_t i) {
      if (i == 0) {
        started = true;
        await(release);
      }
    });
    Handle g2 = s.submit(desc("g2", 11.0), [] {});
    group.close();
    // Submitted while g1's first slice runs: the group is one unit, so the
    // urgent op waits for all of it.
    await(started);
    Handle hot = s.submit(desc("hot", 0.0), [] {});
    release = true;
    hot.wait();
    EXPECT_TRUE(g1.done());
    EXPECT_TRUE(g2.done());

    // A plain sliced op is a one-member unit: the urgent op waits for all
    // of it as well.
    started = false;
    release = false;
    Handle plain = s.submit(desc("plain", 10.0), 4, [&](int64_t i) {
      if (i == 0) {
        started = true;
        await(release);
      }
    });
    await(started);
    Handle hot2 = s.submit(desc("hot2", 0.0), [] {});
    release = true;
    hot2.wait();
    EXPECT_TRUE(plain.done());
    s.drain();
    std::vector<std::string> order;
    for (const auto& r : s.records()) order.push_back(r.name);
    EXPECT_EQ(order, (std::vector<std::string>{"g1", "g2", "hot", "plain",
                                               "hot2"}));
  });
}

TEST_P(Conformance, GroupMemberFailureFailsGroupAndBacklog) {
  run([](NegotiatedScheduler& s) {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    NegotiatedScheduler::Group group = s.open_group();
    Handle first = s.submit(desc("first", 1.0), [&] {
      started = true;
      await(release);
    });
    Handle bad = s.submit(desc("bad", 2.0), [] { throw Error("boom"); });
    Handle rest = s.submit(desc("rest", 3.0),
                           [] { FAIL() << "must never run"; });
    group.close();
    // Park the comm thread in the first member so the backlog op is queued
    // before the failure (no submit-vs-fail race).
    await(started);
    Handle behind = s.submit(desc("behind", 4.0),
                             [] { FAIL() << "must never run"; });
    release = true;
    EXPECT_NO_THROW(first.wait());
    EXPECT_THROW(
        {
          try {
            bad.wait();
          } catch (const SchedulerError&) {
            ADD_FAILURE() << "the culprit keeps its own error";
            throw;
          } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
            throw;
          }
        },
        Error);
    EXPECT_THROW(rest.wait(), SchedulerError);
    EXPECT_THROW(behind.wait(), SchedulerError);
    EXPECT_TRUE(s.failed());
    ASSERT_EQ(s.records().size(), 1u);
    EXPECT_EQ(s.records()[0].name, "first");
  });
}

TEST_P(Conformance, UnclosedGroupFailsItsStagedOps) {
  run([](NegotiatedScheduler& s) {
    // A throw between open and close: the staged ops are failed, never
    // published, and the scheduler stays usable (every rank discarded the
    // same group).
    std::vector<Handle> staged;
    try {
      NegotiatedScheduler::Group group = s.open_group();
      staged.push_back(s.submit(desc("s1", 1.0),
                                [] { FAIL() << "never published"; }));
      staged.push_back(s.submit(desc("s2", 2.0), 3, [](int64_t) {
        FAIL() << "never published";
      }));
      throw Error("before close");
    } catch (const Error&) {
    }
    for (const Handle& h : staged) EXPECT_THROW(h.wait(), SchedulerError);
    EXPECT_FALSE(s.failed());
    Handle after = s.submit(desc("s1", 1.0), [] {});
    after.wait();
    s.drain();
    ASSERT_EQ(s.records().size(), 1u);
    EXPECT_EQ(s.records()[0].name, "s1");
  });
}

TEST_P(Conformance, AbortFailsStagedGroupWithoutWedge) {
  run([](NegotiatedScheduler& s) {
    NegotiatedScheduler::Group group = s.open_group();
    Handle a = s.submit(desc("a", 1.0), [] { FAIL() << "never published"; });
    Handle b = s.submit(desc("b", 2.0), [] { FAIL() << "never published"; });
    s.abort();
    EXPECT_THROW(a.wait(), SchedulerError);
    EXPECT_THROW(b.wait(), SchedulerError);
    EXPECT_TRUE(s.failed());
    EXPECT_THROW(s.submit(desc("c", 3.0), [] {}), SchedulerError);
    group.close();  // nothing left to publish
    EXPECT_TRUE(s.records().empty());
  });
}

TEST_P(Conformance, GroupRejectsDuplicateNamesAndNesting) {
  run([](NegotiatedScheduler& s) {
    // Park the comm thread so "p" stays pending for the name checks.
    std::atomic<bool> release{false};
    Handle gate = s.submit(desc("gate", 0.0), [&] { await(release); });
    Handle p = s.submit(desc("p", 1.0), [] {});
    {
      NegotiatedScheduler::Group group = s.open_group();
      EXPECT_THROW(s.submit(desc("p", 2.0), [] {}), Error);  // pending
      s.submit(desc("q", 2.0), [] {});
      EXPECT_THROW(s.submit(desc("q", 3.0), [] {}), Error);  // staged
      EXPECT_THROW((void)s.open_group(), Error);              // nested
      EXPECT_THROW(s.drain(), Error);  // staged ops cannot run yet
      group.close();
      EXPECT_THROW(group.close(), Error);
    }
    EXPECT_THROW(s.submit(desc("q", 3.0), [] {}), Error);  // now pending
    release = true;
    s.drain();
    EXPECT_TRUE(gate.done() && p.done());
    EXPECT_EQ(s.records().size(), 3u);
  });
}

TEST_P(Conformance, RepeatedGroupsReplayWithoutAnnouncements) {
  const int world = GetParam();
  const int64_t announced0 = announcements();
  const int64_t replayed0 = replayed();
  std::mutex mu;
  std::vector<std::vector<std::string>> logs(static_cast<size_t>(world));
  run(CommBody([&](NegotiatedScheduler& s, comm::Communicator& c) {
    // Rank 0 is the leader, and the bodies send nothing themselves, so its
    // sent messages are its announcements.
    const auto sent = [&] { return c.fabric().traffic_from(0).messages; };
    const int64_t sent0 = sent();
    // Two repeats of a period of two groups, the trainer's lookup and
    // gradient groups: the last announcement arms replay.
    for (int step = 8; step < 10; ++step) {
      submit_group(s, step, {"lookup"});
      submit_group(s, step, {"grad", "dense"}, 3);
      s.drain();
    }
    const int64_t armed = sent();
    // Steady state, submitted back to back and across a digit-count change
    // in the names: no message at all.
    for (int step = 10; step < 14; ++step) {
      submit_group(s, step, {"lookup"});
      submit_group(s, step, {"grad", "dense"}, 3);
    }
    s.drain();
    if (c.rank() == 0) {
      EXPECT_EQ(armed - sent0, 4 * (world - 1));
      EXPECT_EQ(sent(), armed);
    }
    std::vector<std::string> names;
    for (const auto& r : s.records()) names.push_back(r.name);
    std::lock_guard<std::mutex> lock(mu);
    logs[static_cast<size_t>(c.rank())] = std::move(names);
  }));
  std::vector<std::string> want;
  for (int step = 8; step < 14; ++step) {
    for (const char* name : {"lookup", "grad", "dense"}) {
      want.push_back(std::string(name) + "/s" + std::to_string(step));
    }
  }
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(logs[static_cast<size_t>(r)], want) << "rank " << r;
  }
  // Leader only; nothing is announced at world 1.
  EXPECT_EQ(announcements() - announced0, world > 1 ? 4 : 0);
  EXPECT_EQ(replayed() - replayed0, 8);
}

TEST_P(Conformance, ChangedSignatureCostsOneAnnouncementThenRearms) {
  const int world = GetParam();
  const int64_t announced0 = announcements();
  const int64_t replayed0 = replayed();
  run(CommBody([world](NegotiatedScheduler& s, comm::Communicator& c) {
    const auto sent = [&] { return c.fabric().traffic_from(0).messages; };
    const auto step = [&](int i, std::initializer_list<const char*> names) {
      submit_group(s, i, names);
      s.drain();
      return sent();
    };
    const int64_t sent0 = sent();
    step(0, {"a"});
    const int64_t armed = step(1, {"a"});
    const int64_t replay_a = step(2, {"a"});
    // One more member: the signature differs, so the unit leaves replay
    // and is announced once.
    const int64_t changed = step(3, {"a", "b"});
    // Its repeat is announced with the mark and re-arms replay.
    const int64_t rearmed = step(4, {"a", "b"});
    step(5, {"a", "b"});
    const int64_t steady = step(6, {"a", "b"});
    if (c.rank() == 0) {
      EXPECT_EQ(armed - sent0, 2 * (world - 1));
      EXPECT_EQ(replay_a, armed);
      EXPECT_EQ(changed - replay_a, world - 1);
      EXPECT_EQ(rearmed - changed, world - 1);
      EXPECT_EQ(steady, rearmed);
    }
    EXPECT_EQ(s.records().size(), 3u + 4u * 2u);
  }));
  EXPECT_EQ(announcements() - announced0, world > 1 ? 4 : 0);
  EXPECT_EQ(replayed() - replayed0, 3);
}

TEST_P(Conformance, PlainSlicedOpDuringReplayIsAnnouncedOnce) {
  const int world = GetParam();
  const int64_t announced0 = announcements();
  const int64_t replayed0 = replayed();
  run(CommBody([world](NegotiatedScheduler& s, comm::Communicator& c) {
    const auto sent = [&] { return c.fabric().traffic_from(0).messages; };
    for (int step = 0; step < 3; ++step) {
      submit_group(s, step, {"g"});
      s.drain();
    }
    const int64_t replaying = sent();
    // A plain op has no signature: it leaves replay and is announced once,
    // whatever its slice count.
    s.submit(desc("plain", 100.0), 4, [](int64_t) {});
    s.drain();
    const int64_t plain = sent();
    // The groups are negotiated again until they repeat.
    for (int step = 3; step < 5; ++step) {
      submit_group(s, step, {"g"});
      s.drain();
    }
    const int64_t rearmed = sent();
    submit_group(s, 5, {"g"});
    s.drain();
    if (c.rank() == 0) {
      EXPECT_EQ(plain - replaying, world - 1);
      EXPECT_EQ(rearmed - plain, 2 * (world - 1));
      EXPECT_EQ(sent(), rearmed);
    }
    EXPECT_EQ(s.records().size(), 7u);
  }));
  EXPECT_EQ(announcements() - announced0, world > 1 ? 2 + 1 + 2 : 0);
  EXPECT_EQ(replayed() - replayed0, 2);
}

TEST_P(Conformance, ShutdownWhileReplayingRunsBacklogAndStops) {
  run([](NegotiatedScheduler& s) {
    for (int step = 0; step < 2; ++step) {
      submit_group(s, step, {"x", "y"});
      s.drain();
    }
    std::vector<Handle> backlog;
    for (int step = 2; step < 5; ++step) {
      for (Handle& h : submit_group(s, step, {"x", "y"})) {
        backlog.push_back(std::move(h));
      }
    }
    // Replays the backlog, then leaves replay on the drained queue and
    // stops every rank with the stop token.
    s.shutdown();
    for (const Handle& h : backlog) {
      EXPECT_TRUE(h.done());
      EXPECT_FALSE(h.failed());
    }
    EXPECT_EQ(s.records().size(), 10u);
  });
}

TEST_P(Conformance, AbortWhileReplayingDoesNotWedge) {
  run([](NegotiatedScheduler& s) {
    for (int step = 0; step < 2; ++step) {
      submit_group(s, step, {"x"});
      s.drain();
    }
    // A replayed unit is running and another is pending when every rank
    // aborts locally: the running one finishes, the pending one fails.
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    Handle running;
    {
      NegotiatedScheduler::Group group = s.open_group();
      running = s.submit(desc("x/s2", 20.0), [&] {
        started = true;
        await(release);
      });
      group.close();
    }
    std::vector<Handle> pending = submit_group(s, 3, {"x"});
    await(started);
    std::thread releaser([&] {
      while (!s.failed()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      release = true;
    });
    s.abort();
    releaser.join();
    EXPECT_NO_THROW(running.wait());
    EXPECT_THROW(pending[0].wait(), SchedulerError);
    EXPECT_THROW(submit_group(s, 4, {"x"}), SchedulerError);
    EXPECT_EQ(s.records().size(), 3u);
  });
}

TEST_P(Conformance, AsymmetricSubmissionDuringReplayFailsWithinDeadline) {
  const int world = GetParam();
  std::atomic<int> followers_failed{0};
  run(
      CommBody([&](NegotiatedScheduler& s, comm::Communicator& c) {
        for (int step = 0; step < 2; ++step) {
          submit_group(s, step, {"g"});
          s.drain();
        }
        // Rank 0 submits the next repeat and replays it without a message.
        // Every other rank submits a different group: it leaves replay and
        // waits for an announcement that never comes.
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<Handle> h =
            submit_group(s, 2, {c.rank() == 0 ? "g" : "h"});
        if (c.rank() == 0) {
          EXPECT_NO_THROW(h[0].wait());
          // Shut down only once the followers failed on their own.
          while (followers_failed < world - 1 &&
                 std::chrono::steady_clock::now() - t0 <
                     std::chrono::seconds(5)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return;
        }
        EXPECT_THROW(h[0].wait(), SchedulerError);
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(5));
        EXPECT_TRUE(s.failed());
        ++followers_failed;
      }),
      std::chrono::milliseconds(500));
  EXPECT_EQ(followers_failed, world - 1);
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

}  // namespace
}  // namespace embrace::sched
