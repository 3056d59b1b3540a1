#include "comm/hierarchical_collectives.h"

#include <cstring>
#include <utility>

#include "comm/chunked_collectives.h"
#include "common/error.h"

namespace embrace::comm {
namespace {

// Wire helpers for the leader bundles. An entry is
//   [dst_world:int32][src_world:int32][len:int64][payload]
// (the per-local-rank scatter blobs drop the dst field — every entry is
// addressed to the receiving rank).

void append_raw(Bytes& out, const void* p, size_t n) {
  const size_t off = out.size();
  out.resize(off + n);
  if (n > 0) std::memcpy(out.data() + off, p, n);
}

void append_i32(Bytes& out, int32_t v) { append_raw(out, &v, sizeof(v)); }
void append_i64(Bytes& out, int64_t v) { append_raw(out, &v, sizeof(v)); }

int32_t read_i32(const Bytes& b, size_t& off) {
  int32_t v = 0;
  EMBRACE_CHECK_LE(off + sizeof(v), b.size(), << "truncated bundle");
  std::memcpy(&v, b.data() + off, sizeof(v));
  off += sizeof(v);
  return v;
}

int64_t read_i64(const Bytes& b, size_t& off) {
  int64_t v = 0;
  EMBRACE_CHECK_LE(off + sizeof(v), b.size(), << "truncated bundle");
  std::memcpy(&v, b.data() + off, sizeof(v));
  off += sizeof(v);
  return v;
}

}  // namespace

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

std::vector<Bytes> hierarchical_alltoallv(CommGroup& g,
                                          std::vector<Bytes> send) {
  EMBRACE_CHECK(g.world != nullptr);
  Communicator& world = *g.world;
  if (!g.two_level()) return world.alltoallv(std::move(send));
  Communicator& node = *g.node;
  Fabric& fabric = world.fabric();
  const int w = world.size();
  EMBRACE_CHECK_EQ(static_cast<int>(send.size()), w);
  const int my_world = world.rank();
  const int my_node = fabric.node_of(world.global_rank());

  // World-rank → (node, index within node) maps, plus this node's member
  // list in node-group order (fabric ranks ascend with world ranks on a
  // root communicator, matching the split's (key = fabric rank) order).
  std::vector<int> node_of_w(static_cast<size_t>(w));
  std::vector<int> local_of_w(static_cast<size_t>(w));
  std::vector<int> world_of_local;
  {
    std::vector<int> counts(static_cast<size_t>(g.nodes), 0);
    for (int r = 0; r < w; ++r) {
      const int nd = fabric.node_of(world.global_of(r));
      node_of_w[static_cast<size_t>(r)] = nd;
      local_of_w[static_cast<size_t>(r)] = counts[static_cast<size_t>(nd)]++;
      if (nd == my_node) world_of_local.push_back(r);
    }
  }
  EMBRACE_CHECK_EQ(static_cast<int>(world_of_local.size()), node.size());

  std::vector<Bytes> out(static_cast<size_t>(w));

  // Stage 0: same-node payloads never leave the node — a plain AlltoAllv
  // over the node group.
  {
    std::vector<Bytes> local_send(world_of_local.size());
    for (size_t j = 0; j < world_of_local.size(); ++j) {
      local_send[j] =
          std::move(send[static_cast<size_t>(world_of_local[j])]);
    }
    std::vector<Bytes> local_recv = node.alltoallv(std::move(local_send));
    for (size_t j = 0; j < world_of_local.size(); ++j) {
      out[static_cast<size_t>(world_of_local[j])] = std::move(local_recv[j]);
    }
  }

  // Stage 1: remote-destined payloads ride to the node leader in one blob.
  Bytes blob;
  for (int d = 0; d < w; ++d) {
    if (node_of_w[static_cast<size_t>(d)] == my_node) continue;
    const Bytes& payload = send[static_cast<size_t>(d)];
    append_i32(blob, d);
    append_i32(blob, my_world);
    append_i64(blob, static_cast<int64_t>(payload.size()));
    append_raw(blob, payload.data(), payload.size());
  }
  std::vector<Bytes> blobs = node.gatherv(blob, 0);

  // Stage 2: the leader regroups its node's entries into one bundle per
  // destination node and exchanges bundles leader-to-leader — one
  // inter-node message per node pair instead of g² rank pairs.
  std::vector<Bytes> from_leaders;
  if (node.rank() == 0) {
    std::vector<Bytes> per_node(static_cast<size_t>(g.nodes));
    for (const Bytes& b : blobs) {
      size_t off = 0;
      while (off < b.size()) {
        const size_t entry_start = off;
        const int32_t dst = read_i32(b, off);
        (void)read_i32(b, off);  // src
        const int64_t len = read_i64(b, off);
        EMBRACE_CHECK_LE(off + static_cast<size_t>(len), b.size(),
                         << "truncated bundle payload");
        off += static_cast<size_t>(len);
        Bytes& bundle = per_node[static_cast<size_t>(
            node_of_w[static_cast<size_t>(dst)])];
        append_raw(bundle, b.data() + entry_start, off - entry_start);
      }
    }
    from_leaders = g.leaders->alltoallv(std::move(per_node));
  }

  // Stage 3: the leader splits the received bundles per local destination
  // and scatters; each rank unpacks its blob into out[src].
  std::vector<Bytes> per_local(static_cast<size_t>(node.size()));
  if (node.rank() == 0) {
    for (const Bytes& b : from_leaders) {
      size_t off = 0;
      while (off < b.size()) {
        const int32_t dst = read_i32(b, off);
        const int32_t src = read_i32(b, off);
        const int64_t len = read_i64(b, off);
        EMBRACE_CHECK_LE(off + static_cast<size_t>(len), b.size(),
                         << "truncated bundle payload");
        Bytes& dest = per_local[static_cast<size_t>(
            local_of_w[static_cast<size_t>(dst)])];
        append_i32(dest, src);
        append_i64(dest, len);
        append_raw(dest, b.data() + off, static_cast<size_t>(len));
        off += static_cast<size_t>(len);
      }
    }
  }
  const Bytes mine = node.scatterv(std::move(per_local), 0);
  {
    size_t off = 0;
    while (off < mine.size()) {
      const int32_t src = read_i32(mine, off);
      const int64_t len = read_i64(mine, off);
      EMBRACE_CHECK_LE(off + static_cast<size_t>(len), mine.size(),
                       << "truncated scatter payload");
      Bytes payload(static_cast<size_t>(len));
      if (len > 0) {
        std::memcpy(payload.data(), mine.data() + off,
                    static_cast<size_t>(len));
      }
      off += static_cast<size_t>(len);
      out[static_cast<size_t>(src)] = std::move(payload);
    }
  }
  return out;
}

}  // namespace embrace::comm
