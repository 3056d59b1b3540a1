#include "comm/communicator.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "comm/chunked_collectives.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// One span per collective call (tagged with payload bytes and channel) plus
// an always-on per-collective byte counter. The static locals pin the
// registry lookup cost to the first call per site.
#define EMBRACE_COLLECTIVE_PROLOGUE(opname, payload_bytes)            \
  static obs::Counter& obs_bytes_counter =                            \
      obs::counter("comm.bytes{collective=" opname "}");              \
  static obs::Counter& obs_calls_counter =                            \
      obs::counter("comm.calls{collective=" opname "}");              \
  const int64_t obs_payload = (payload_bytes);                        \
  obs_bytes_counter.add(obs_payload);                                 \
  obs_calls_counter.increment();                                      \
  obs::ScopedSpan obs_span(opname, "bytes", obs_payload, "channel",   \
                           channel_id_)

namespace embrace::comm {
namespace {

// The deadline/recovery receive loop, shared by the owning and the shared
// (zero-copy) receive paths. `try_recv(wait)` returns an optional message;
// `block_recv()` blocks forever (reliable fast path).
template <typename TryFn, typename BlockFn>
auto checked_recv_loop(Fabric& fabric, int rank, int channel, int src,
                       uint64_t tag, TryFn try_recv, BlockFn block_recv)
    -> decltype(block_recv()) {
  using std::chrono::microseconds;
  const microseconds budget = fabric.recv_timeout();
  if (budget.count() <= 0 && !fabric.faults_enabled()) {
    // Fast path: reliable links, no deadline policy — block forever.
    return block_recv();
  }
  const auto start = std::chrono::steady_clock::now();
  // Poll slices grow exponentially (backoff) between recovery attempts so a
  // healthy-but-slow link is not hammered, capped to keep the deadline
  // reasonably tight.
  microseconds slice{200};
  constexpr microseconds kMaxSlice{5000};
  while (true) {
    microseconds wait = slice;
    if (budget.count() > 0) {
      const auto elapsed = std::chrono::duration_cast<microseconds>(
          std::chrono::steady_clock::now() - start);
      const microseconds remaining = budget - elapsed;
      if (remaining.count() <= 0) {
        static obs::Counter& timeouts = obs::counter("comm.timeouts");
        timeouts.increment();
        obs::emit_instant("comm.timeout", "src", src, "dst", rank);
        std::ostringstream os;
        os << "recv deadline exceeded after " << budget.count()
           << "us waiting on edge (src=" << src << " -> dst=" << rank
           << ", tag=" << tag << ", channel=" << channel
           << "): peer dead, link black-holed, or deadline too tight";
        throw TimeoutError(src, rank, tag, os.str());
      }
      wait = std::min(wait, remaining);
    }
    if (auto msg = try_recv(wait)) {
      return std::move(*msg);
    }
    // Retryable fault: a recoverably-dropped message can be "retransmitted".
    // Immediately retry the receive after recovery; otherwise back off.
    if (fabric.recover(rank, src, tag)) continue;
    slice = std::min(slice * 2, kMaxSlice);
  }
}

}  // namespace

// Wire payloads live in std::vector<std::byte> storage (allocator-aligned
// to max_align_t) and are filled by memcpy from float arrays, so the
// reinterpret is well-aligned.
std::span<const float> float_view(const Bytes& buf) {
  EMBRACE_CHECK_EQ(buf.size() % sizeof(float), 0u);
  return {reinterpret_cast<const float*>(buf.data()),
          buf.size() / sizeof(float)};
}

void reduce_into(std::span<float> acc, std::span<const float> in,
                 ReduceOp op) {
  EMBRACE_CHECK_EQ(acc.size(), in.size());
  switch (op) {
    case ReduceOp::kSum:
      for (size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMax:
      for (size_t i = 0; i < acc.size(); ++i) acc[i] = std::max(acc[i], in[i]);
      break;
  }
}

Communicator::Communicator(Fabric& fabric, int rank, int channel_id)
    : fabric_(&fabric), rank_(rank), global_rank_(rank),
      channel_id_(channel_id) {
  EMBRACE_CHECK(rank >= 0 && rank < fabric.num_ranks());
  EMBRACE_CHECK(channel_id >= 0 && channel_id < (1 << 8),
                << "channel id out of range");
}

Communicator::Communicator(Fabric& fabric,
                           std::shared_ptr<const std::vector<int>> members,
                           int group_rank, int channel_id, int tag_space)
    : fabric_(&fabric), members_(std::move(members)), rank_(group_rank),
      channel_id_(channel_id), tag_space_(tag_space) {
  EMBRACE_CHECK(members_ != nullptr && !members_->empty());
  EMBRACE_CHECK(group_rank >= 0 &&
                group_rank < static_cast<int>(members_->size()));
  EMBRACE_CHECK(channel_id >= 0 && channel_id < (1 << 8),
                << "channel id out of range");
  EMBRACE_CHECK(tag_space >= 0 && tag_space < (1 << 8),
                << "tag-space id out of range");
  global_rank_ = (*members_)[static_cast<size_t>(group_rank)];
}

Communicator Communicator::channel(int channel_id) const {
  Communicator out = *this;
  EMBRACE_CHECK(channel_id >= 0 && channel_id < (1 << 8),
                << "channel id out of range");
  out.channel_id_ = channel_id;
  out.seq_ = 0;
  return out;
}

Bytes Communicator::checked_recv(int src, uint64_t tag) {
  const int gsrc = global(src);
  return checked_recv_loop(
      *fabric_, global_rank_, channel_id_, gsrc, tag,
      [&](std::chrono::microseconds wait) {
        return fabric_->try_recv_for(global_rank_, gsrc, tag, wait);
      },
      [&] { return fabric_->recv(global_rank_, gsrc, tag); });
}

SharedBytes Communicator::checked_recv_shared(int src, uint64_t tag) {
  const int gsrc = global(src);
  return checked_recv_loop(
      *fabric_, global_rank_, channel_id_, gsrc, tag,
      [&](std::chrono::microseconds wait) {
        return fabric_->try_recv_shared_for(global_rank_, gsrc, tag, wait);
      },
      [&] { return fabric_->recv_shared(global_rank_, gsrc, tag); });
}

void Communicator::send_float_block(int dst, uint64_t tag,
                                    std::span<const float> data) {
  Bytes buf = pool().acquire(data.size() * sizeof(float));
  // Empty spans may carry a null data(); memcpy's pointer args must be
  // non-null even for size 0.
  if (!buf.empty()) std::memcpy(buf.data(), data.data(), buf.size());
  fabric_->send(global_rank_, global(dst), tag, std::move(buf));
}

void Communicator::recv_copy_block(int src, uint64_t tag,
                                   std::span<float> dst) {
  Bytes buf = checked_recv(src, tag);
  EMBRACE_CHECK_EQ(buf.size(), dst.size() * sizeof(float),
                   << "float payload size mismatch");
  if (!buf.empty()) std::memcpy(dst.data(), buf.data(), buf.size());
  pool().release(std::move(buf));
}

void Communicator::recv_reduce_block(int src, uint64_t tag,
                                     std::span<float> acc, ReduceOp op) {
  Bytes buf = checked_recv(src, tag);
  EMBRACE_CHECK_EQ(buf.size(), acc.size() * sizeof(float),
                   << "float payload size mismatch");
  reduce_into(acc, float_view(buf), op);
  pool().release(std::move(buf));
}

void Communicator::send_bytes_block(int dst, uint64_t tag, Bytes msg) {
  fabric_->send(global_rank_, global(dst), tag, std::move(msg));
}

Bytes Communicator::recv_bytes_block(int src, uint64_t tag) {
  return checked_recv(src, tag);
}

uint64_t Communicator::reserve_tags(int64_t count) {
  EMBRACE_CHECK_GE(count, 1);
  const uint64_t first = next_tag();
  // next_tag() is a simple increment; skip the remaining count-1 values.
  seq_ += static_cast<uint64_t>(count - 1);
  return first;
}

uint64_t Communicator::tag_base() const {
  // Tag layout: [tag_space:8][channel:8][space:32], staying under the
  // fabric's 48-bit tag budget. tag_space 0 is the world namespace, so a
  // world communicator's tags are independent of how many splits exist.
  return (static_cast<uint64_t>(tag_space_) << 40) |
         (static_cast<uint64_t>(channel_id_) << 32);
}

uint64_t Communicator::next_tag() {
  // The 32-bit space splits into [tagged:1][sequence:31] (see
  // kTaggedSpaceBit below). The SPMD contract guarantees the per-channel,
  // per-group sequence numbers line up across member ranks.
  const uint64_t tag = tag_base() | (seq_ & ((uint64_t{1} << 31) - 1));
  ++seq_;
  return tag;
}

void Communicator::send_bytes(int dst, Bytes msg) {
  fabric_->send(global_rank_, global(dst), next_tag(), std::move(msg));
}

Bytes Communicator::recv_bytes(int src) {
  return checked_recv(src, next_tag());
}

namespace {
constexpr uint64_t kTaggedSpaceBit = uint64_t{1} << 31;
}

void Communicator::send_bytes_at(int dst, uint64_t user_tag, Bytes msg) {
  EMBRACE_CHECK_LT(user_tag, kTaggedSpaceBit, << "user tag out of range");
  const uint64_t tag = tag_base() | kTaggedSpaceBit | user_tag;
  fabric_->send(global_rank_, global(dst), tag, std::move(msg));
}

std::optional<Bytes> Communicator::try_recv_bytes_at(
    int src, uint64_t user_tag, std::chrono::microseconds timeout) {
  EMBRACE_CHECK_LT(user_tag, kTaggedSpaceBit, << "user tag out of range");
  const uint64_t tag = tag_base() | kTaggedSpaceBit | user_tag;
  const int gsrc = global(src);
  if (auto msg = fabric_->try_recv_for(global_rank_, gsrc, tag, timeout)) {
    return msg;
  }
  // One recovery attempt per poll so recoverable drops cannot starve a
  // polling receiver that never exceeds a global deadline.
  if (fabric_->recover(global_rank_, gsrc, tag)) {
    return fabric_->try_recv_for(global_rank_, gsrc, tag, timeout);
  }
  return std::nullopt;
}

std::pair<int64_t, int64_t> Communicator::chunk_range(int64_t total,
                                                      int chunk_rank) const {
  const int64_t n = size();
  // floor(total * k / n) computed division-first so `total * k` never
  // overflows int64 for large tensors × high rank counts:
  //   total = q·n + r  =>  floor(total·k/n) = q·k + floor(r·k/n)
  // with r < n and k <= n, so r·k fits comfortably (ranks are ints).
  const int64_t q = total / n;
  const int64_t r = total % n;
  const auto bound = [&](int64_t k) { return q * k + (r * k) / n; };
  return {bound(chunk_rank), bound(chunk_rank + 1)};
}

LinkCost Communicator::worst_link() const {
  LinkCost worst;
  if (!fabric_->link_costs_enabled()) return worst;
  const int n = size();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const LinkCost c = fabric_->link_cost(global(a), global(b));
      worst.alpha_us = std::max(worst.alpha_us, c.alpha_us);
      if (c.bytes_per_us > 0.0 &&
          (worst.bytes_per_us == 0.0 || c.bytes_per_us < worst.bytes_per_us)) {
        worst.bytes_per_us = c.bytes_per_us;
      }
    }
  }
  return worst;
}

void Communicator::barrier() {
  EMBRACE_COLLECTIVE_PROLOGUE("barrier", 0);
  // Dissemination barrier: ceil(log2 N) rounds of token exchange.
  const int n = size();
  for (int k = 1; k < n; k <<= 1) {
    const uint64_t tag = next_tag();
    const int to = (rank_ + k) % n;
    const int from = (rank_ - k + n) % n;
    fabric_->send(global_rank_, global(to), tag, Bytes{});
    (void)checked_recv(from, tag);
  }
}

void Communicator::broadcast(std::span<float> data, int root) {
  EMBRACE_COLLECTIVE_PROLOGUE(
      "broadcast", static_cast<int64_t>(data.size() * sizeof(float)));
  // Binomial tree rooted at `root` (ranks relabeled relative to root).
  const int n = size();
  const int vrank = (rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    const uint64_t tag = next_tag();
    if (vrank < mask) {
      const int vpeer = vrank + mask;
      if (vpeer < n) {
        const int peer = (vpeer + root) % n;
        send_float_block(peer, tag, data);
      }
    } else if (vrank < 2 * mask) {
      const int vpeer = vrank - mask;
      const int peer = (vpeer + root) % n;
      recv_copy_block(peer, tag, data);
    }
    mask <<= 1;
  }
}

std::vector<float> Communicator::reduce_scatter(std::span<float> data,
                                                ReduceOp op) {
  EMBRACE_COLLECTIVE_PROLOGUE(
      "reduce_scatter", static_cast<int64_t>(data.size() * sizeof(float)));
  ring_walk(*this, data, /*chunk_bytes=*/0, op, /*codec=*/nullptr,
            /*gather=*/false);
  const auto [mb, me] = chunk_range(static_cast<int64_t>(data.size()), rank_);
  return std::vector<float>(data.begin() + mb, data.begin() + me);
}

void Communicator::allreduce(std::span<float> data, ReduceOp op) {
  EMBRACE_COLLECTIVE_PROLOGUE(
      "allreduce", static_cast<int64_t>(data.size() * sizeof(float)));
  allreduce_walk(*this, data, /*chunk_bytes=*/0, op, /*codec=*/nullptr);
}

std::vector<Bytes> Communicator::gatherv(const Bytes& mine, int root) {
  EMBRACE_COLLECTIVE_PROLOGUE("gatherv", static_cast<int64_t>(mine.size()));
  const int n = size();
  const uint64_t tag = next_tag();
  if (rank_ != root) {
    fabric_->send(global_rank_, global(root), tag, mine);
    return {};
  }
  std::vector<Bytes> out(static_cast<size_t>(n));
  out[static_cast<size_t>(root)] = mine;
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    out[static_cast<size_t>(r)] = checked_recv(r, tag);
  }
  return out;
}

std::vector<float> Communicator::allgather(std::span<const float> block) {
  const size_t block_bytes = block.size() * sizeof(float);
  EMBRACE_COLLECTIVE_PROLOGUE("allgather", static_cast<int64_t>(block_bytes));
  // One round: the pairwise exchange ships this rank's block to each of
  // the N−1 peers, the same messages and bytes per rank as a ring.
  Bytes mine(block_bytes);
  if (!mine.empty()) std::memcpy(mine.data(), block.data(), block_bytes);
  const std::vector<SharedBytes> blocks =
      allgatherv_shared_impl(std::move(mine));
  std::vector<float> out(block.size() * blocks.size());
  for (size_t r = 0; r < blocks.size(); ++r) {
    EMBRACE_CHECK_EQ(blocks[r]->size(), block_bytes,
                     << "float payload size mismatch");
    if (block_bytes > 0) {
      std::memcpy(out.data() + r * block.size(), blocks[r]->data(),
                  block_bytes);
    }
  }
  return out;
}

std::vector<Bytes> Communicator::allgatherv(const Bytes& mine) {
  EMBRACE_COLLECTIVE_PROLOGUE("allgatherv",
                              static_cast<int64_t>(mine.size()));
  // Compatibility wrapper: run the zero-copy exchange, then materialize an
  // owned copy per peer for callers that want to mutate or keep the bytes.
  auto shared = allgatherv_shared_impl(mine);
  std::vector<Bytes> out(shared.size());
  for (size_t r = 0; r < shared.size(); ++r) out[r] = *shared[r];
  return out;
}

std::vector<SharedBytes> Communicator::allgatherv_shared(Bytes mine) {
  EMBRACE_COLLECTIVE_PROLOGUE("allgatherv",
                              static_cast<int64_t>(mine.size()));
  return allgatherv_shared_impl(std::move(mine));
}

std::vector<SharedBytes> Communicator::allgatherv_shared_impl(Bytes mine) {
  const int n = size();
  std::vector<SharedBytes> out(static_cast<size_t>(n));
  auto shared = std::make_shared<Bytes>(std::move(mine));
  out[static_cast<size_t>(rank_)] = shared;
  // Pairwise exchange: every rank ships its full payload to every peer —
  // the (N−1)·αM traffic pattern the paper attributes to sparse AllGather.
  // All N−1 sends alias one buffer and every receiver reads the sender's
  // bytes in place, so the pattern costs zero host-side copies. Every send
  // is posted before the first receive, so the exchange is one round on
  // the wire: the N−1 messages share one α.
  if (n == 1) return out;
  const uint64_t first = reserve_tags(n - 1);
  for (int s = 1; s < n; ++s) {
    fabric_->send_shared(global_rank_, global((rank_ + s) % n),
                         first + static_cast<uint64_t>(s - 1), shared);
  }
  for (int s = 1; s < n; ++s) {
    const int from = (rank_ - s + n) % n;
    out[static_cast<size_t>(from)] =
        checked_recv_shared(from, first + static_cast<uint64_t>(s - 1));
  }
  return out;
}

std::vector<float> Communicator::alltoall(std::span<const float> send,
                                          int64_t chunk) {
  EMBRACE_COLLECTIVE_PROLOGUE(
      "alltoall", static_cast<int64_t>(send.size() * sizeof(float)));
  const int n = size();
  EMBRACE_CHECK_EQ(static_cast<int64_t>(send.size()), chunk * n);
  const size_t chunk_bytes = static_cast<size_t>(chunk) * sizeof(float);
  std::vector<Bytes> payloads(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Bytes buf = pool().acquire(chunk_bytes);
    if (!buf.empty()) {
      std::memcpy(buf.data(),
                  send.data() + static_cast<size_t>(i) * static_cast<size_t>(chunk),
                  chunk_bytes);
    }
    payloads[static_cast<size_t>(i)] = std::move(buf);
  }
  auto recv = alltoallv_impl(std::move(payloads));
  std::vector<float> out(static_cast<size_t>(chunk) * n);
  for (int i = 0; i < n; ++i) {
    Bytes& buf = recv[static_cast<size_t>(i)];
    EMBRACE_CHECK_EQ(buf.size(), chunk_bytes);
    if (!buf.empty()) {
      std::memcpy(out.data() + static_cast<size_t>(i) * static_cast<size_t>(chunk),
                  buf.data(), chunk_bytes);
    }
    pool().release(std::move(buf));
  }
  return out;
}

std::vector<Bytes> Communicator::alltoallv(std::vector<Bytes> send) {
  int64_t send_bytes = 0;
  for (const Bytes& p : send) send_bytes += static_cast<int64_t>(p.size());
  EMBRACE_COLLECTIVE_PROLOGUE("alltoallv", send_bytes);
  return alltoallv_impl(std::move(send));
}

std::vector<Bytes> Communicator::alltoallv_impl(std::vector<Bytes> send) {
  const int n = size();
  EMBRACE_CHECK_EQ(static_cast<int>(send.size()), n);
  std::vector<Bytes> out(static_cast<size_t>(n));
  out[static_cast<size_t>(rank_)] = std::move(send[static_cast<size_t>(rank_)]);
  // Pairwise exchange in one round: all N−1 sends are posted before the
  // first receive, so their α overlaps on the wire. Step s sends to
  // rank + s and receives from rank − s under its own tag; the peer
  // pattern spreads each step's messages over distinct destinations.
  if (n == 1) return out;
  const uint64_t first = reserve_tags(n - 1);
  for (int s = 1; s < n; ++s) {
    const int to = (rank_ + s) % n;
    fabric_->send(global_rank_, global(to),
                  first + static_cast<uint64_t>(s - 1),
                  std::move(send[static_cast<size_t>(to)]));
  }
  for (int s = 1; s < n; ++s) {
    const int from = (rank_ - s + n) % n;
    out[static_cast<size_t>(from)] =
        checked_recv(from, first + static_cast<uint64_t>(s - 1));
  }
  return out;
}

std::optional<Communicator> Communicator::split(int color, int key) {
  EMBRACE_COLLECTIVE_PROLOGUE("split", 0);
  // (color, key) ride a float allgather; floats carry 24-bit integers
  // exactly, which bounds the accepted magnitudes.
  EMBRACE_CHECK_LT(color, 1 << 24, << "split color out of range");
  EMBRACE_CHECK_GT(color, -(1 << 24), << "split color out of range");
  EMBRACE_CHECK_LT(key, 1 << 24, << "split key out of range");
  EMBRACE_CHECK_GT(key, -(1 << 24), << "split key out of range");
  const int n = size();
  const float mine[2] = {static_cast<float>(color), static_cast<float>(key)};
  const std::vector<float> all = allgather(mine);
  // One tag-space id per split call: group rank 0 allocates, everyone
  // learns it. Sibling groups of this split share the id — their member
  // sets are disjoint, so their (src, tag) mailbox keys cannot collide.
  std::vector<float> ts{0.0f};
  if (rank_ == 0) {
    ts[0] = static_cast<float>(fabric_->allocate_tag_space());
  }
  broadcast(ts, 0);
  const int tag_space = static_cast<int>(ts[0]);
  if (color < 0) return std::nullopt;

  // My sub-group: members with my color, ordered by (key, fabric rank).
  struct Entry {
    int key;
    int fabric_rank;
  };
  std::vector<Entry> entries;
  for (int r = 0; r < n; ++r) {
    const int c = static_cast<int>(all[static_cast<size_t>(2 * r)]);
    if (c != color) continue;
    entries.push_back({static_cast<int>(all[static_cast<size_t>(2 * r + 1)]),
                       global(r)});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.fabric_rank < b.fabric_rank;
  });
  auto members = std::make_shared<std::vector<int>>();
  members->reserve(entries.size());
  int my_index = -1;
  for (const Entry& e : entries) {
    if (e.fabric_rank == global_rank_) {
      my_index = static_cast<int>(members->size());
    }
    members->push_back(e.fabric_rank);
  }
  EMBRACE_CHECK_GE(my_index, 0);
  return Communicator(*fabric_, std::move(members), my_index, channel_id_,
                      tag_space);
}

}  // namespace embrace::comm
