// allreduce_chunked correctness: the chunked pipelined ring must be
// BITWISE-equal to the monolithic Communicator::allreduce for every world
// size, payload size, chunk size, and reduce op — the invariant that lets
// the trainer flip chunk_bytes without perturbing a single loss bit. The
// monolithic call is the same ring walk at chunk 0, so these checks compare
// chunk k against chunk 0; the ring's sums themselves are checked against
// independent references in collectives_test and collective_fuzz_test. Also
// exercises the chunked path under a codec and under recoverable fault
// injection. These fabrics have no link costs, so the pick keeps the ring
// (checked through the route counters).
//
// The dense AllReduce's other route, the one-shot (allgather plus rank-order
// sum), must equal a serial sum in rank order 0..N-1 bit for bit on every
// rank, and its α–β pick must follow the round model and agree across ranks.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "comm/chunk_plan.h"
#include "comm/chunked_collectives.h"
#include "comm/codec.h"
#include "comm/cluster.h"
#include "comm/communicator.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace embrace::comm {
namespace {

std::vector<float> make_data(int rank, int64_t elems, uint64_t seed) {
  Rng rng(seed + static_cast<uint64_t>(rank) * 101);
  std::vector<float> data(static_cast<size_t>(elems));
  for (auto& v : data) v = static_cast<float>(rng.next_double(-2.0, 2.0));
  return data;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Monolithic result on one copy, chunked on another, same cluster: the two
// must agree bit for bit (same block partition, same reduce order; only the
// wire messages differ).
void expect_chunked_matches_monolithic(int world, int64_t elems) {
  Fabric fabric(world);
  run_cluster(fabric, [&](Communicator& c) {
    const std::vector<float> data = make_data(c.rank(), elems, 7);
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax}) {
      std::vector<float> mono = data;
      c.allreduce(mono, op);
      for (const int64_t chunk :
           {int64_t{0}, int64_t{16}, int64_t{256}, int64_t{4096},
            int64_t{1} << 24}) {
        std::vector<float> chunked = data;
        allreduce_chunked(c, chunked, chunk, op);
        EXPECT_TRUE(bitwise_equal(mono, chunked))
            << "world=" << world << " elems=" << elems << " chunk=" << chunk
            << " op=" << static_cast<int>(op);
      }
    }
  });
}

obs::Counter& route_counter(const char* algo) {
  return obs::counter(std::string("comm.allreduce_algo{algo=") + algo + "}");
}

TEST(ChunkedAllReduce, BitwiseEqualToMonolithicRing) {
  const int64_t one_shot0 = route_counter("one_shot").value();
  const int64_t ring0 = route_counter("ring").value();
  for (const int world : {1, 2, 3, 4}) {
    for (const int64_t elems :
         {int64_t{0}, int64_t{1}, int64_t{5}, int64_t{64}, int64_t{1000},
          int64_t{4097}}) {
      expect_chunked_matches_monolithic(world, elems);
    }
  }
  // Without link costs every call took the ring.
  EXPECT_EQ(route_counter("one_shot").value(), one_shot0);
  EXPECT_GT(route_counter("ring").value(), ring0);
}

// A non-null identity codec must be wire-transparent: same bits as the
// codec-less path (it round-trips every chunk through encode/decode buffers
// but never alters a value).
TEST(ChunkedAllReduce, IdentityCodecIsBitwiseTransparent) {
  constexpr int kWorld = 4;
  constexpr int64_t kElems = 777;
  Fabric fabric(kWorld);
  run_cluster(fabric, [&](Communicator& c) {
    const std::vector<float> data = make_data(c.rank(), kElems, 23);
    std::vector<float> plain = data;
    allreduce_chunked(c, plain, 64);
    const auto codec = make_codec(CodecKind::kIdentity);
    std::vector<float> coded = data;
    allreduce_chunked(c, coded, 64, ReduceOp::kSum, codec.get());
    EXPECT_TRUE(bitwise_equal(plain, coded));
  });
}

TEST(ChunkedAllReduce, SurvivesRecoverableFaultInjection) {
  constexpr int kWorld = 3;
  constexpr int64_t kElems = 1000;
  // Clean-fabric reference first: fault recovery must not change a bit.
  std::vector<std::vector<float>> expected(kWorld);
  {
    Fabric fabric(kWorld);
    run_cluster(fabric, [&](Communicator& c) {
      std::vector<float> data = make_data(c.rank(), kElems, 17);
      c.allreduce(data);
      expected[static_cast<size_t>(c.rank())] = std::move(data);
    });
  }
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Fabric fabric(kWorld);
    FaultConfig faults;
    faults.drop_prob = 0.02;
    faults.dup_prob = 0.02;
    faults.reorder_prob = 0.05;
    faults.recoverable = true;
    fabric.set_fault_config(faults, seed);
    run_cluster(fabric, [&](Communicator& c) {
      std::vector<float> data = make_data(c.rank(), kElems, 17);
      allreduce_chunked(c, data, 64);
      EXPECT_TRUE(
          bitwise_equal(data, expected[static_cast<size_t>(c.rank())]))
          << "rank " << c.rank() << " seed " << seed;
    });
  }
}

TEST(DenseAllReducePick, FollowsTheRoundModel) {
  constexpr LinkCost kWanSmall{50.0, 1250.0};  // 50 us, 10 Gbps
  constexpr LinkCost kWanWide{50.0, 125.0};    // 50 us, 1 Gbps
  const auto pick = [](int64_t floats, int n, const LinkCost& link) {
    return pick_dense_allreduce(floats * int64_t{sizeof(float)}, n, link);
  };
  // The wan-small dense head: 6 rounds of α against one.
  EXPECT_EQ(pick(1158, 4, kWanSmall), DenseAllReduceAlgo::kOneShot);
  // The wan-wide head: the one-shot's 3·B·β outweighs the saved rounds.
  EXPECT_EQ(pick(6110, 4, kWanWide), DenseAllReduceAlgo::kRing);
  // A 2 MB table is bandwidth-bound on either link.
  EXPECT_EQ(pick(int64_t{1} << 19, 4, kWanSmall), DenseAllReduceAlgo::kRing);
  EXPECT_EQ(pick(int64_t{1} << 19, 4, kWanWide), DenseAllReduceAlgo::kRing);
  for (const int64_t floats : {int64_t{0}, int64_t{1}, int64_t{1158},
                               int64_t{1} << 19}) {
    // No link costs: both routes cost nothing, and ties go to the ring.
    for (const int n : {1, 2, 4, 8}) {
      EXPECT_EQ(pick(floats, n, LinkCost{}), DenseAllReduceAlgo::kRing);
    }
    // Two ranks: the ring's 2α + B·β never beats the one-shot's α + B·β.
    EXPECT_EQ(pick(floats, 2, kWanWide), DenseAllReduceAlgo::kOneShot);
    EXPECT_EQ(pick(floats, 2, LinkCost{1.0, 0.0}),
              DenseAllReduceAlgo::kOneShot);
    // One rank: nothing to exchange, and the ring is a no-op.
    EXPECT_EQ(pick(floats, 1, kWanSmall), DenseAllReduceAlgo::kRing);
  }
}

// Every rank of a 2x2 two-tier fabric prices the same worst link, so every
// rank picks the same route at every size; a node's sub-group sees only
// its intra-node links.
TEST(DenseAllReducePick, RanksOfATwoTierFabricAgree) {
  constexpr int kWorld = 4;
  // The worst link takes the inter tier's α and the intra tier's bandwidth.
  constexpr LinkCost kIntra{5.0, 100.0};
  constexpr LinkCost kInter{50.0, 1250.0};
  Fabric fabric(kWorld);
  simnet::ClusterTopology topo;
  topo.nodes = 2;
  topo.gpus_per_node = 2;
  fabric.set_topology(topo, kIntra, kInter);
  const std::vector<int64_t> sizes = {0, 64, 4632, 1 << 16, 1 << 21};
  std::vector<std::vector<DenseAllReduceAlgo>> picks(kWorld);
  run_cluster(fabric, [&](Communicator& c) {
    const LinkCost worst = c.worst_link();
    EXPECT_EQ(worst.alpha_us, kInter.alpha_us);
    EXPECT_EQ(worst.bytes_per_us, kIntra.bytes_per_us);
    auto& mine = picks[static_cast<size_t>(c.rank())];
    for (const int64_t bytes : sizes) {
      mine.push_back(pick_dense_allreduce(bytes, c.size(), worst));
    }
    std::optional<Communicator> node = c.split(fabric.node_of(c.rank()));
    ASSERT_TRUE(node.has_value());
    EXPECT_EQ(node->worst_link().alpha_us, kIntra.alpha_us);
    EXPECT_EQ(node->worst_link().bytes_per_us, kIntra.bytes_per_us);
    // And the routes really run: both sizes reduce to the same sum.
    for (const int64_t elems : {int64_t{16}, int64_t{1} << 16}) {
      std::vector<float> data(static_cast<size_t>(elems), 1.0f);
      c.allreduce(data);
      EXPECT_EQ(data.front(), static_cast<float>(kWorld));
      EXPECT_EQ(data.back(), static_cast<float>(kWorld));
    }
  });
  for (int r = 1; r < kWorld; ++r) EXPECT_EQ(picks[r], picks[0]);
  // The sizes straddle the crossover, so the agreement is not vacuous.
  EXPECT_EQ(picks[0].front(), DenseAllReduceAlgo::kOneShot);
  EXPECT_EQ(picks[0].back(), DenseAllReduceAlgo::kRing);
}

// The one-shot sums the N buffers in rank order 0..N-1 on every rank: each
// rank's result is bitwise the serial left fold, so the ranks agree.
TEST(OneShotAllReduce, EqualsTheSerialRankOrderFoldOnEveryRank) {
  for (const int world : {1, 2, 3, 4, 5, 8}) {
    for (const int64_t elems :
         {int64_t{0}, int64_t{1}, int64_t{5}, int64_t{1000}}) {
      for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax}) {
        std::vector<float> expected = make_data(0, elems, 31);
        for (int r = 1; r < world; ++r) {
          reduce_into(expected, make_data(r, elems, 31), op);
        }
        Fabric fabric(world);
        run_cluster(fabric, [&](Communicator& c) {
          std::vector<float> data = make_data(c.rank(), elems, 31);
          one_shot_walk(c, data, op);
          EXPECT_TRUE(bitwise_equal(data, expected))
              << "world=" << world << " elems=" << elems
              << " op=" << static_cast<int>(op) << " rank=" << c.rank();
        });
      }
    }
  }
}

// On a latency-bound link both public entries take the one-shot, at every
// chunk size, with the same bits as the walk.
TEST(OneShotAllReduce, PublicEntriesPickItOnALatencyBoundLink) {
  constexpr int kWorld = 4;
  constexpr int64_t kElems = 1158;
  std::vector<float> expected = make_data(0, kElems, 41);
  for (int r = 1; r < kWorld; ++r) {
    reduce_into(expected, make_data(r, kElems, 41), ReduceOp::kSum);
  }
  Fabric fabric(kWorld);
  fabric.set_uniform_link_cost(LinkCost{50.0, 1250.0});  // wan-small
  const int64_t one_shot0 = route_counter("one_shot").value();
  const int64_t ring0 = route_counter("ring").value();
  run_cluster(fabric, [&](Communicator& c) {
    const std::vector<float> data = make_data(c.rank(), kElems, 41);
    std::vector<float> plain = data;
    c.allreduce(plain);
    EXPECT_TRUE(bitwise_equal(plain, expected));
    for (const int64_t chunk : {int64_t{0}, int64_t{256}}) {
      std::vector<float> chunked = data;
      allreduce_chunked(c, chunked, chunk);
      EXPECT_TRUE(bitwise_equal(chunked, expected)) << "chunk=" << chunk;
    }
    // A codec keeps the ring: its owner-block projection is ring-specific.
    const auto codec = make_codec(CodecKind::kIdentity);
    std::vector<float> coded = data;
    allreduce_chunked(c, coded, 0, ReduceOp::kSum, codec.get());
  });
  EXPECT_EQ(route_counter("one_shot").value() - one_shot0, 3 * kWorld);
  EXPECT_EQ(route_counter("ring").value() - ring0, kWorld);
}

TEST(ChunkPlan, CoversEveryElementInOrder) {
  const ChunkPlan plan = ChunkPlan::over(1001, 64, sizeof(float));
  // 64-byte chunks of floats: 16 elems each, ceil(1001/16) = 63 chunks.
  EXPECT_EQ(plan.num_chunks(), 63);
  int64_t cursor = 0;
  for (int64_t i = 0; i < plan.num_chunks(); ++i) {
    const auto [b, e] = plan.chunk(i);
    EXPECT_EQ(b, cursor);
    EXPECT_GT(e, b);
    cursor = e;
  }
  EXPECT_EQ(cursor, 1001);
  // Degenerate shapes still yield exactly one (possibly empty) chunk.
  EXPECT_EQ(ChunkPlan::over(0, 64).num_chunks(), 1);
  EXPECT_EQ(ChunkPlan::over(10, 0).num_chunks(), 1);
}

// Sub-element chunk budgets degrade to 1-element quanta, never zero: a
// zero-element chunk would make num_chunks unbounded and stall the ring.
// The budget bounds granularity, not message size, so the chunks overshoot
// the byte budget by up to one element and still cover every element.
TEST(ChunkPlan, SubElementChunkBytesYieldsOneElemQuanta) {
  for (const int64_t chunk_bytes : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    const ChunkPlan plan = ChunkPlan::over(7, chunk_bytes, sizeof(float));
    EXPECT_EQ(plan.chunk_elems, 1) << "chunk_bytes=" << chunk_bytes;
    EXPECT_EQ(plan.num_chunks(), 7);
    for (int64_t i = 0; i < 7; ++i) {
      EXPECT_EQ(plan.chunk(i), (std::pair<int64_t, int64_t>{i, i + 1}));
    }
  }
  // Wider elements hit the same floor.
  EXPECT_EQ(ChunkPlan::over(5, 7, 8).chunk_elems, 1);
  // And the degenerate combination still yields the single empty chunk.
  EXPECT_EQ(ChunkPlan::over(0, 1, 8).num_chunks(), 1);
}

}  // namespace
}  // namespace embrace::comm
