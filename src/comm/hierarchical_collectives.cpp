#include "comm/hierarchical_collectives.h"

#include <cstring>
#include <utility>
#include <vector>

#include "comm/chunked_collectives.h"
#include "common/error.h"

namespace embrace::comm {

void hierarchical_allreduce(CommGroup& g, std::span<float> data, ReduceOp op,
                            const Codec* codec, int64_t chunk_bytes) {
  EMBRACE_CHECK(g.world != nullptr);
  Communicator& world = *g.world;
  if (!g.two_level() || data.empty()) {
    allreduce_chunked(world, data, chunk_bytes, op,
                      data.empty() ? nullptr : codec);
    return;
  }
  Communicator& node = *g.node;
  const int gsz = node.size();
  const int64_t total = static_cast<int64_t>(data.size());

  // Stage 1: intra-node ring reduce-scatter — local rank r ends up owning
  // the node-wide reduction of chunk r — then the chunks converge on the
  // node leader, which reassembles the full node sum in place. (This
  // reduce-scatter + gather pair is a reduce-to-leader at ring bandwidth.)
  const std::vector<float> chunk = node.reduce_scatter(data, op);
  Bytes mine = node.pool().acquire(chunk.size() * sizeof(float));
  if (!mine.empty()) std::memcpy(mine.data(), chunk.data(), mine.size());
  std::vector<Bytes> parts = node.gatherv(mine, 0);
  node.pool().release(std::move(mine));

  if (node.rank() == 0) {
    for (int r = 0; r < gsz; ++r) {
      const auto [b, e] = node.chunk_range(total, r);
      Bytes& part = parts[static_cast<size_t>(r)];
      EMBRACE_CHECK_EQ(part.size(),
                       static_cast<size_t>(e - b) * sizeof(float));
      if (!part.empty()) {
        std::memcpy(data.data() + b, part.data(), part.size());
      }
      node.pool().release(std::move(part));
    }
    // Stage 2: inter-node ring AllReduce of the full node sums across the
    // leaders — the only stage that touches the expensive tier, and hence
    // the only one a wire codec compresses.
    allreduce_chunked(*g.leaders, data, chunk_bytes, op, codec);
  }

  // Stage 3: fan the finished vector back out within the node. This also
  // guarantees every rank of a node holds bitwise-identical results.
  node.broadcast(data, 0);
}

}  // namespace embrace::comm
