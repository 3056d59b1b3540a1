// CommGroup tree and Communicator::split coverage (DESIGN.md §13):
// MPI_Comm_split semantics (color/key ordering, negative-color opt-out),
// disjoint tag namespaces between a parent and its sub-groups, sub-group
// collectives leaving non-members untouched on the wire, and a dead
// inter-node link surfacing as a typed TimeoutError naming the leader edge.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <numeric>
#include <span>
#include <vector>

#include "comm/cluster.h"
#include "comm/comm_group.h"
#include "comm/communicator.h"
#include "comm/fabric.h"
#include "comm/hierarchical_collectives.h"
#include "simnet/topology.h"

namespace embrace::comm {
namespace {

simnet::ClusterTopology make_topo(int nodes, int gpus_per_node) {
  simnet::ClusterTopology t;
  t.nodes = nodes;
  t.gpus_per_node = gpus_per_node;
  return t;
}

TEST(CommSplit, PartitionsByColorOrderedByKeyThenFabricRank) {
  constexpr int kRanks = 6;
  run_cluster(kRanks, [&](Communicator& comm) {
    const int color = comm.rank() % 2;
    // Key = -rank reverses the order within each parity class; ties are
    // impossible here, so the group must be ordered by descending rank.
    auto sub = comm.split(color, -comm.rank());
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->size(), kRanks / 2);
    // Even group (descending): 4, 2, 0. Odd group: 5, 3, 1.
    const int expect_rank = (kRanks - 2 - comm.rank() + color) / 2;
    EXPECT_EQ(sub->rank(), expect_rank);
    EXPECT_EQ(sub->global_rank(), comm.rank());
    // Group rank r is fabric rank kRanks - 2 - 2r + color: every member
    // reports its fabric rank and the allgather lays them out by group rank.
    const float me = static_cast<float>(sub->global_rank());
    const std::vector<float> fabric_ranks = sub->allgather(std::span(&me, 1));
    ASSERT_EQ(static_cast<int>(fabric_ranks.size()), sub->size());
    for (int r = 0; r < sub->size(); ++r) {
      EXPECT_EQ(fabric_ranks[static_cast<size_t>(r)],
                static_cast<float>(kRanks - 2 - 2 * r + color));
    }
    // The sub-group is a working communicator: sum of members' ranks.
    std::vector<float> v{static_cast<float>(comm.rank())};
    sub->allreduce(v);
    const float expect = color == 0 ? 0.f + 2.f + 4.f : 1.f + 3.f + 5.f;
    EXPECT_EQ(v[0], expect);
  });
}

TEST(CommSplit, NegativeColorOptsOutButParticipatesInExchange) {
  constexpr int kRanks = 4;
  std::atomic<int> engaged{0};
  run_cluster(kRanks, [&](Communicator& comm) {
    auto sub = comm.split(comm.rank() == 0 ? -1 : 7, comm.rank());
    if (comm.rank() == 0) {
      EXPECT_FALSE(sub.has_value());
    } else {
      ASSERT_TRUE(sub.has_value());
      EXPECT_EQ(sub->size(), kRanks - 1);
      engaged.fetch_add(1);
    }
    // The split is itself a collective: every rank (including the opted-out
    // one) reaches this barrier, proving no rank wedged in the exchange.
    comm.barrier();
  });
  EXPECT_EQ(engaged.load(), kRanks - 1);
}

TEST(CommSplit, SubGroupTagsDisjointFromParentUnderSkewedInterleaving) {
  // Node 0 runs three node-local collectives while node 1 runs one, then
  // everyone joins a world collective. Without per-split tag spaces the
  // extra node-0 rounds would collide with the world AllReduce's sequence
  // tags on the same channel.
  constexpr int kRanks = 4;
  run_cluster(kRanks, [&](Communicator& comm) {
    const int node = comm.rank() / 2;
    auto sub = comm.split(node, comm.rank());
    ASSERT_TRUE(sub.has_value());
    const int rounds = node == 0 ? 3 : 1;
    std::vector<float> v{1.0f};
    for (int i = 0; i < rounds; ++i) sub->allreduce(v);
    // v = 2^rounds after doubling each round.
    EXPECT_EQ(v[0], node == 0 ? 8.0f : 2.0f);
    std::vector<float> w{static_cast<float>(comm.rank())};
    comm.allreduce(w);
    EXPECT_EQ(w[0], 6.0f);
    // And the sub-group still works after the world collective.
    sub->allreduce(v);
    EXPECT_EQ(v[0], node == 0 ? 16.0f : 4.0f);
  });
}

TEST(CommSplit, NestedSplitAllocatesFreshTagSpace) {
  constexpr int kRanks = 8;
  run_cluster(kRanks, [&](Communicator& comm) {
    auto half = comm.split(comm.rank() / 4, comm.rank());
    ASSERT_TRUE(half.has_value());
    auto quarter = half->split(half->rank() / 2, half->rank());
    ASSERT_TRUE(quarter.has_value());
    EXPECT_EQ(quarter->size(), 2);
    std::vector<float> v{static_cast<float>(comm.rank())};
    quarter->allreduce(v);
    // Pairs (0,1), (2,3), (4,5), (6,7): sum = 4·(rank/2) + 1.
    EXPECT_EQ(v[0], static_cast<float>((comm.rank() / 2) * 4 + 1));
  });
}

TEST(CommGroup, TreeShapeFollowsFabricTopology) {
  Fabric fabric(6);
  fabric.set_topology(make_topo(2, 3), LinkCost{}, LinkCost{});
  run_cluster(fabric, [&](Communicator& comm) {
    CommGroup g = build_comm_group(comm);
    EXPECT_TRUE(g.two_level());
    EXPECT_EQ(g.nodes, 2);
    EXPECT_EQ(g.gpus_per_node, 3);
    ASSERT_TRUE(g.node.has_value());
    EXPECT_EQ(g.node->size(), 3);
    EXPECT_EQ(g.node->rank(), comm.rank() % 3);
    const bool leader = comm.rank() % 3 == 0;
    EXPECT_EQ(g.leaders.has_value(), leader);
    if (leader) {
      // Leaders group rank k is node k (keyed by node id), whose leader is
      // the node's lowest fabric rank.
      EXPECT_EQ(g.leaders->size(), 2);
      EXPECT_EQ(g.leaders->rank(), comm.rank() / 3);
      const float me = static_cast<float>(g.leaders->global_rank());
      EXPECT_EQ(g.leaders->allgather(std::span(&me, 1)),
                (std::vector<float>{0.0f, 3.0f}));
    }
  });
}

TEST(CommGroup, FlatFabricDegeneratesToSingleNode) {
  Fabric fabric(4);  // no set_topology
  run_cluster(fabric, [&](Communicator& comm) {
    CommGroup g = build_comm_group(comm);
    EXPECT_FALSE(g.two_level());
    EXPECT_EQ(g.nodes, 1);
    EXPECT_EQ(g.gpus_per_node, 4);
    ASSERT_TRUE(g.node.has_value());
    EXPECT_EQ(g.node->size(), 4);
  });
}

TEST(CommGroup, SubGroupCollectiveLeavesNonMembersUntouched) {
  constexpr int kRanks = 4;
  Fabric fabric(kRanks);
  run_cluster(fabric, [&](Communicator& comm) {
    auto sub = comm.split(comm.rank() < 2 ? 0 : -1, comm.rank());
    comm.barrier();
    if (comm.rank() == 0) fabric.reset_traffic();
    comm.barrier();
    if (sub.has_value()) {
      std::vector<float> v(64, 1.0f);
      sub->allreduce(v);
      EXPECT_EQ(v[0], 2.0f);
    }
    comm.barrier();
    // After the members-only collective (bracketed by barriers so its
    // traffic is isolated modulo the barrier's own tiny messages), no
    // payload may have touched ranks 2 or 3's links.
    if (comm.rank() == 0) {
      for (int outside = 2; outside < kRanks; ++outside) {
        for (int peer = 0; peer < kRanks; ++peer) {
          if (peer == outside) continue;
          // Barrier traffic is zero-byte messages; the allreduce moved
          // 64-float payloads. Byte counters must show nothing entering or
          // leaving the non-members.
          EXPECT_EQ(fabric.traffic(outside, peer).bytes, 0)
              << outside << "->" << peer;
          EXPECT_EQ(fabric.traffic(peer, outside).bytes, 0)
              << peer << "->" << outside;
        }
      }
      EXPECT_GT(fabric.traffic(0, 1).bytes, 0);
    }
    comm.barrier();
  });
}

TEST(CommGroup, DeadInterNodeLinkRaisesTimeoutNamingLeaderEdge) {
  constexpr int kRanks = 4;
  Fabric fabric(kRanks);
  fabric.set_topology(make_topo(2, 2), LinkCost{}, LinkCost{});
  fabric.set_recv_timeout(std::chrono::milliseconds(250));
  // Black-hole the leader edge 2 -> 0 (leaders are the node-lowest fabric
  // ranks 0 and 2) once every rank holds its group: building the group
  // crosses every edge (split's allgather is a pairwise exchange), so the
  // link dies between the two, with no message in flight. Then only the
  // inter-node stage crosses it.
  FaultConfig dead;
  dead.drop_prob = 1.0;
  dead.recoverable = false;
  std::barrier built(kRanks,
                     [&]() noexcept { fabric.set_link_faults(2, 0, dead); });
  std::mutex mu;
  std::vector<TimeoutError> errors;
  run_cluster(fabric, [&](Communicator& comm) {
    CommGroup g = build_comm_group(comm);
    built.arrive_and_wait();
    std::vector<float> data(16, 1.0f);
    try {
      hierarchical_allreduce(g, data);
      // Only ranks upstream of the dead edge could conceivably finish; the
      // leader waiting on 2 -> 0 must not.
      EXPECT_NE(comm.rank(), 0);
    } catch (const TimeoutError& e) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back(e);
    }
  });
  ASSERT_FALSE(errors.empty());
  bool named = false;
  for (const TimeoutError& e : errors) {
    // The edge is named in fabric-rank terms even though the wait happened
    // inside a sub-group collective.
    if (e.src() == 2 && e.dst() == 0) named = true;
    EXPECT_GE(e.src(), 0);
    EXPECT_LT(e.src(), kRanks);
  }
  EXPECT_TRUE(named) << "no error named the dead leader edge 2->0";
}

}  // namespace
}  // namespace embrace::comm
