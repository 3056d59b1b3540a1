// The fabric's α–β link emulation charges α as wire latency, paid once per
// communication round, not once per send: on a 4-rank, zero-compute
// fabric whose α (5 ms) dwarfs host noise, the pairwise collectives
// (AlltoAllv, AllGatherv, AllGather) and the one-shot AllReduce cost one
// round and the ring AllReduce its 2(N−1) dependent rounds. Receives never
// see a message before its ready time, and fault delays add to that time
// without holding the sender.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "comm/communicator.h"
#include "comm/fabric.h"
#include "obs/perf.h"

namespace embrace::comm {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

constexpr int kRanks = 4;
constexpr double kAlphaUs = 5000.0;
constexpr int kReps = 7;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

LinkCost latency_only() {
  LinkCost cost;
  cost.alpha_us = kAlphaUs;
  return cost;
}

// Runs `op` kReps times on every rank, each after a barrier, and returns
// the median over reps of the op's cost in µs: from the last rank's entry
// to the last rank's exit. No rank can finish a round before every rank
// has entered it, so barrier exit skew does not count as link time.
template <typename Op>
double median_round_us(const Op& op) {
  Fabric fabric(kRanks);
  fabric.set_uniform_link_cost(latency_only());
  std::vector<std::vector<Clock::time_point>> entry(
      kReps, std::vector<Clock::time_point>(kRanks));
  auto exit = entry;
  run_cluster(fabric, [&](Communicator& comm) {
    const auto r = static_cast<size_t>(comm.rank());
    for (int rep = 0; rep < kReps; ++rep) {
      comm.barrier();
      entry[rep][r] = Clock::now();
      op(comm);
      exit[rep][r] = Clock::now();
    }
  });
  std::vector<double> cost;
  for (int rep = 0; rep < kReps; ++rep) {
    cost.push_back(
        us_between(*std::max_element(entry[rep].begin(), entry[rep].end()),
                   *std::max_element(exit[rep].begin(), exit[rep].end())));
  }
  std::sort(cost.begin(), cost.end());
  return cost[kReps / 2];
}

TEST(LinkLatency, AlltoAllvCostsOneRound) {
  const double us = median_round_us([](Communicator& comm) {
    std::vector<Bytes> send(kRanks, Bytes(16));
    const auto got = comm.alltoallv(std::move(send));
    ASSERT_EQ(got.size(), static_cast<size_t>(kRanks));
  });
  EXPECT_NEAR(us, kAlphaUs, 0.25 * kAlphaUs);
}

TEST(LinkLatency, AllGathervCostsOneRound) {
  const double us = median_round_us([](Communicator& comm) {
    const auto got = comm.allgatherv(Bytes(16));
    ASSERT_EQ(got.size(), static_cast<size_t>(kRanks));
  });
  EXPECT_NEAR(us, kAlphaUs, 0.25 * kAlphaUs);
}

TEST(LinkLatency, AllGatherCostsOneRound) {
  const double us = median_round_us([](Communicator& comm) {
    const std::vector<float> mine(16, 1.0f);
    const auto got = comm.allgather(mine);
    ASSERT_EQ(got.size(), 16u * kRanks);
  });
  EXPECT_NEAR(us, kAlphaUs, 0.25 * kAlphaUs);
}

// The ring walk itself: on this latency-only link Communicator::allreduce
// prices the one-shot cheaper and never takes the ring.
TEST(LinkLatency, RingAllReduceCostsTwoRoundsPerPeer) {
  const double us = median_round_us([](Communicator& comm) {
    std::vector<float> data(16, 1.0f);
    ring_walk(comm, data, /*chunk_bytes=*/0, ReduceOp::kSum,
              /*codec=*/nullptr, /*gather=*/true);
    ASSERT_FLOAT_EQ(data[0], static_cast<float>(kRanks));
  });
  const double rounds = 2.0 * (kRanks - 1);
  EXPECT_NEAR(us, rounds * kAlphaUs, 0.25 * rounds * kAlphaUs);
}

TEST(LinkLatency, SmallAllReduceCostsOneRound) {
  const double us = median_round_us([](Communicator& comm) {
    std::vector<float> data(16, 1.0f);
    comm.allreduce(data);
    ASSERT_FLOAT_EQ(data[0], static_cast<float>(kRanks));
  });
  EXPECT_NEAR(us, kAlphaUs, 0.25 * kAlphaUs);
}

TEST(LinkLatency, ShortTryRecvLeavesAnInFlightMessage) {
  Fabric fabric(kRanks);
  fabric.set_uniform_link_cost(latency_only());
  const auto sent = Clock::now();
  fabric.send(0, 1, 3, Bytes(16));
  const auto early = fabric.try_recv_for(1, 0, 3, microseconds(1000));
  const auto returned = Clock::now();
  // A receive never sees a message before its ready time (α after the
  // send). Only a thread preempted past that time could have got it.
  if (us_between(sent, returned) < kAlphaUs) {
    EXPECT_FALSE(early.has_value());
  }
  if (!early) {
    EXPECT_EQ(fabric.recv(1, 0, 3).size(), 16u);
  }
  EXPECT_GE(us_between(sent, Clock::now()), kAlphaUs);
  EXPECT_EQ(fabric.mailbox_keys(1), 0u);
}

TEST(LinkLatency, FaultDelayAddsToReadyTimeWithoutHoldingTheSender) {
  Fabric fabric(kRanks);
  fabric.set_uniform_link_cost(latency_only());
  FaultConfig jitter;
  jitter.delay_max_us = 20000;
  fabric.set_fault_config(jitter, /*seed=*/7);
  // The profiler samples each message's modelled send-to-ready time, so
  // with one message per link a link's fit is exactly α + its delay.
  obs::LinkProfiler& profiler = obs::link_profiler();
  profiler.reset();
  profiler.set_enabled(true);
  const auto t0 = Clock::now();
  for (int dst = 1; dst < kRanks; ++dst) fabric.send(0, dst, 0, Bytes(16));
  const double send_us = us_between(t0, Clock::now());
  profiler.set_enabled(false);
  // A held sender would take at least 3α plus the three delays.
  EXPECT_LT(send_us, 3.0 * kAlphaUs);
  double max_ready_us = 0.0;
  for (int dst = 1; dst < kRanks; ++dst) {
    const obs::LinkFit fit = profiler.fit(0, dst);
    ASSERT_EQ(fit.samples, 1);
    EXPECT_GE(fit.alpha_us, kAlphaUs);
    EXPECT_LE(fit.alpha_us, kAlphaUs + 20000.0);
    max_ready_us = std::max(max_ready_us, fit.alpha_us);
    EXPECT_EQ(fabric.recv(dst, 0, 0).size(), 16u);
    EXPECT_GE(us_between(t0, Clock::now()), fit.alpha_us);
  }
  // The seed is fixed, so which delays are drawn is too: at least one
  // link's delay is well clear of zero.
  EXPECT_GT(max_ready_us, kAlphaUs + 1000.0);
  profiler.reset();
}

}  // namespace
}  // namespace embrace::comm
