// allreduce_chunked correctness: the chunked pipelined ring must be
// BITWISE-equal to the monolithic Communicator::allreduce for every world
// size, payload size, chunk size, and reduce op — the invariant that lets
// the trainer flip chunk_bytes without perturbing a single loss bit. The
// monolithic call is the same ring walk at chunk 0, so these checks compare
// chunk k against chunk 0; the ring's sums themselves are checked against
// independent references in collectives_test and collective_fuzz_test. Also
// exercises the chunked path under a codec and under recoverable fault
// injection.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comm/chunk_plan.h"
#include "comm/chunked_collectives.h"
#include "comm/codec.h"
#include "comm/cluster.h"
#include "comm/communicator.h"
#include "common/rng.h"

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

TEST(ChunkedAllReduce, BitwiseEqualToMonolithicRing) {
  for (const int world : {1, 2, 3, 4}) {
    for (const int64_t elems :
         {int64_t{0}, int64_t{1}, int64_t{5}, int64_t{64}, int64_t{1000},
          int64_t{4097}}) {
      expect_chunked_matches_monolithic(world, elems);
    }
  }
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
