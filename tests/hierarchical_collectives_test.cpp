// Two-level AllReduce oracles (DESIGN.md §13), at thread scale
// (4–16 ranks, 2–4 ranks/node):
//   * hierarchical_allreduce is bitwise-equal to the exact sum on
//     small-integer-valued floats (every bracketing is exact there), within
//     float tolerance on arbitrary data, and always bitwise-identical
//     across ranks (the final intra-node broadcast guarantees it);
//   * the two-level schedule moves strictly fewer inter-node messages and
//     bytes than the flat ring on the same topology.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <optional>
#include <vector>

#include "comm/cluster.h"
#include "comm/comm_group.h"
#include "comm/communicator.h"
#include "comm/fabric.h"
#include "comm/hierarchical_collectives.h"
#include "common/rng.h"
#include "simnet/topology.h"

namespace embrace::comm {
namespace {

simnet::ClusterTopology make_topo(int nodes, int gpus_per_node) {
  simnet::ClusterTopology t;
  t.nodes = nodes;
  t.gpus_per_node = gpus_per_node;
  return t;
}

struct Shape {
  int nodes;
  int gpus_per_node;
};

class HierarchicalP : public ::testing::TestWithParam<Shape> {
 protected:
  int nodes() const { return GetParam().nodes; }
  int gpn() const { return GetParam().gpus_per_node; }
  int world() const { return nodes() * gpn(); }
};

TEST_P(HierarchicalP, AllReduceBitwiseEqualsExactSumOnIntegerData) {
  constexpr int64_t kLen = 41;  // not divisible by any rank count used
  const int n = world();
  std::vector<std::vector<float>> inputs(static_cast<size_t>(n));
  Rng rng(7);
  for (auto& v : inputs) {
    v.resize(kLen);
    for (auto& x : v) x = static_cast<float>(rng.next_int(-8, 8));
  }
  // Small integers sum exactly in float under ANY bracketing, so the
  // two-level result must be bit-for-bit this reference.
  std::vector<float> expected(kLen, 0.0f);
  for (const auto& v : inputs) {
    for (int64_t i = 0; i < kLen; ++i) expected[i] += v[i];
  }
  Fabric fabric(n);
  fabric.set_topology(make_topo(nodes(), gpn()), LinkCost{}, LinkCost{});
  run_cluster(fabric, [&](Communicator& comm) {
    CommGroup g = build_comm_group(comm);
    ASSERT_EQ(g.two_level(), nodes() > 1 && gpn() > 1);
    auto data = inputs[static_cast<size_t>(comm.rank())];
    hierarchical_allreduce(g, data);
    EXPECT_EQ(0, std::memcmp(data.data(), expected.data(),
                             sizeof(float) * kLen))
        << "rank " << comm.rank();
  });
}

TEST_P(HierarchicalP, AllReduceFloatToleranceAndCrossRankBitwiseAgreement) {
  constexpr int64_t kLen = 129;
  const int n = world();
  std::vector<std::vector<float>> inputs(static_cast<size_t>(n));
  Rng rng(11);
  for (auto& v : inputs) {
    v.resize(kLen);
    for (auto& x : v) x = static_cast<float>(rng.next_double(-1.0, 1.0));
  }
  std::vector<double> expected(kLen, 0.0);
  for (const auto& v : inputs) {
    for (int64_t i = 0; i < kLen; ++i) {
      expected[i] += static_cast<double>(v[i]);
    }
  }
  Fabric fabric(n);
  fabric.set_topology(make_topo(nodes(), gpn()), LinkCost{}, LinkCost{});
  std::mutex mu;
  std::vector<std::vector<float>> results(static_cast<size_t>(n));
  run_cluster(fabric, [&](Communicator& comm) {
    CommGroup g = build_comm_group(comm);
    auto data = inputs[static_cast<size_t>(comm.rank())];
    hierarchical_allreduce(g, data);
    for (int64_t i = 0; i < kLen; ++i) {
      EXPECT_NEAR(static_cast<double>(data[i]), expected[i],
                  1e-4 * (1.0 + std::abs(expected[i])));
    }
    std::lock_guard<std::mutex> lock(mu);
    results[static_cast<size_t>(comm.rank())] = std::move(data);
  });
  // Whatever the bracketing produced, every rank must hold the same bits.
  for (int r = 1; r < n; ++r) {
    EXPECT_EQ(0, std::memcmp(results[0].data(),
                             results[static_cast<size_t>(r)].data(),
                             sizeof(float) * kLen))
        << "rank " << r << " disagrees with rank 0";
  }
}

TEST_P(HierarchicalP, AllReduceMaxBitwiseEqualsOracle) {
  constexpr int64_t kLen = 23;
  const int n = world();
  std::vector<std::vector<float>> inputs(static_cast<size_t>(n));
  Rng rng(13);
  for (auto& v : inputs) {
    v.resize(kLen);
    for (auto& x : v) x = static_cast<float>(rng.next_double(-50.0, 50.0));
  }
  std::vector<float> expected = inputs[0];
  for (const auto& v : inputs) {
    for (int64_t i = 0; i < kLen; ++i) {
      expected[i] = std::max(expected[i], v[i]);
    }
  }
  Fabric fabric(n);
  fabric.set_topology(make_topo(nodes(), gpn()), LinkCost{}, LinkCost{});
  run_cluster(fabric, [&](Communicator& comm) {
    CommGroup g = build_comm_group(comm);
    auto data = inputs[static_cast<size_t>(comm.rank())];
    hierarchical_allreduce(g, data, ReduceOp::kMax);
    // Max is exact under any bracketing: bitwise everywhere.
    EXPECT_EQ(0, std::memcmp(data.data(), expected.data(),
                             sizeof(float) * kLen));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierarchicalP,
    ::testing::Values(Shape{2, 2}, Shape{2, 4}, Shape{3, 4}, Shape{4, 2},
                      Shape{4, 4}, Shape{1, 4} /* flat fallback */),
    [](const ::testing::TestParamInfo<Shape>& p) {
      return std::to_string(p.param.nodes) + "x" +
             std::to_string(p.param.gpus_per_node);
    });

// One AllReduce at 4x2: the two-level schedule must put strictly fewer
// messages AND bytes on the inter-node tier than the flat ring, and the
// obs/tier counters must agree on where the traffic went.
TEST(HierarchicalTierAccounting, TwoLevelMovesLessInterNodeTraffic) {
  constexpr int kNodes = 4, kGpn = 2, kRanks = kNodes * kGpn;
  constexpr int64_t kLen = 1 << 12;
  const auto run = [&](bool two_level) {
    Fabric fabric(kRanks);
    fabric.set_topology(make_topo(kNodes, kGpn), LinkCost{}, LinkCost{});
    run_cluster(fabric, [&](Communicator& comm) {
      // The group build is one-time setup amortized over a whole training
      // run; reset the counters after it so the comparison is steady-state
      // AllReduce traffic (the barriers bracket identically in both runs).
      std::optional<CommGroup> g;
      if (two_level) g.emplace(build_comm_group(comm));
      comm.barrier();
      if (comm.rank() == 0) fabric.reset_traffic();
      comm.barrier();
      std::vector<float> data(kLen, static_cast<float>(comm.rank()));
      if (two_level) {
        hierarchical_allreduce(*g, data);
      } else {
        comm.allreduce(data);
      }
      EXPECT_FLOAT_EQ(data[0],
                      static_cast<float>(kRanks * (kRanks - 1) / 2));
    });
    return std::make_pair(fabric.tier_traffic(false),
                          fabric.tier_traffic(true));
  };
  const auto [flat_inter, flat_intra] = run(false);
  const auto [two_inter, two_intra] = run(true);
  EXPECT_LT(two_inter.bytes, flat_inter.bytes);
  EXPECT_LT(two_inter.messages, flat_inter.messages);
  // The intra tier picks up the confined stages; it must have real traffic.
  EXPECT_GT(two_intra.bytes, 0);
  EXPECT_GT(flat_intra.bytes + flat_inter.bytes, 0);
}

}  // namespace
}  // namespace embrace::comm
