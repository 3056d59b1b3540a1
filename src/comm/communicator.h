// Rank-local handle to the in-process collective runtime.
//
// Mirrors the slice of NCCL/MPI the paper's system uses:
//   send/recv, Barrier, Broadcast, ring AllReduce, ReduceScatter,
//   AllGather and AllGatherv (one-round pairwise exchange; AllGatherv
//   takes variable byte payloads), pairwise AlltoAll / AlltoAllv.
//
// SPMD contract: every member rank calls the same collectives in the same
// order *per channel, per group*. Distinct channels (see channel()) have
// independent tag namespaces, so e.g. the dense AllReduce stream and the
// sparse AlltoAll stream of EmbRace can interleave differently on different
// ranks without cross-talk — exactly the role of separate NCCL
// communicators in the paper's implementation.
//
// Sub-groups (the MPI_Comm_split / LBANN comm-tree analogue): split() forms
// a communicator over a subset of this group's ranks, ordered by
// (key, fabric rank). Every collective below runs unchanged on a sub-group —
// rank()/size() are group-relative and peers are mapped to fabric ranks at
// the transport boundary. Each split allocates a fresh tag-space id from
// the fabric, so a parent and its sub-groups (and unrelated splits) can
// interleave collectives on the same channel without tag collisions;
// sibling groups of one split share the id safely because their member
// sets — and hence their (src, tag) mailbox keys — are disjoint.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/fabric.h"

namespace embrace::comm {

// Reduction operator for AllReduce/ReduceScatter.
enum class ReduceOp { kSum, kMax };

class Communicator {
 public:
  // channel_id selects a disjoint tag namespace on the shared fabric.
  // Constructs a *world* communicator spanning every fabric rank.
  Communicator(Fabric& fabric, int rank, int channel_id = 0);

  // Group-relative rank/size (== fabric rank/num_ranks on world).
  int rank() const { return rank_; }
  int size() const {
    return members_ ? static_cast<int>(members_->size())
                    : fabric_->num_ranks();
  }
  int channel_id() const { return channel_id_; }
  Fabric& fabric() { return *fabric_; }
  // Fabric-level rank of this member (== rank() on world).
  int global_rank() const { return global_rank_; }
  // This rank's wire-buffer pool. Collectives draw their send buffers from
  // here and recycle consumed receive buffers into it; callers that own a
  // received Bytes (alltoallv, recv_bytes) may do the same once done.
  BufferPool& pool() { return fabric_->pool(global_rank_); }

  // A communicator over the same ranks with an independent tag namespace.
  // All ranks must derive channels with matching ids.
  Communicator channel(int channel_id) const;

  // Collectively splits this group (MPI_Comm_split semantics): members
  // passing the same non-negative `color` form a sub-group ordered by
  // (key, fabric rank); members passing color < 0 take part in the split
  // exchange but receive std::nullopt. One fresh tag-space id is allocated
  // per split() call (by group rank 0, broadcast to the group), giving the
  // new groups a tag namespace disjoint from this one's. |color| and |key|
  // must stay below 2^24 — they ride a float allgather.
  std::optional<Communicator> split(int color, int key = 0);

  // --- point to point ---
  void send_bytes(int dst, Bytes msg);
  Bytes recv_bytes(int src);

  // Explicitly-tagged point-to-point within this channel, for protocols
  // whose send/recv counts differ per rank (e.g. the negotiated scheduler's
  // one-to-many announcements). user_tag < 2^31; the tagged space is
  // disjoint from the sequence-numbered space above. Peers are group ranks.
  void send_bytes_at(int dst, uint64_t user_tag, Bytes msg);
  // Bounded variant: std::nullopt on timeout (no TimeoutError, no retry) —
  // lets pollers interleave the wait with their own cancellation checks.
  std::optional<Bytes> try_recv_bytes_at(int src, uint64_t user_tag,
                                         std::chrono::microseconds timeout);

  // --- collectives ---
  void barrier();

  // In-place broadcast from `root`; data must have equal size on all ranks.
  void broadcast(std::span<float> data, int root);

  // In-place ring AllReduce (reduce-scatter + allgather), the Horovod/NCCL
  // algorithm whose cost the paper models as 2(N-1)(M/(N·B) + α). Runs
  // ring_walk (chunked_collectives.h) with one message per ring step.
  void allreduce(std::span<float> data, ReduceOp op = ReduceOp::kSum);

  // Ring reduce-scatter, the first half of allreduce: input `data` of equal
  // size on all ranks; on return the caller's chunk (chunk_range(rank))
  // holds the reduced values. Returns the reduced chunk copied out for
  // convenience.
  std::vector<float> reduce_scatter(std::span<float> data,
                                    ReduceOp op = ReduceOp::kSum);

  // AllGather of equal-size blocks in one round (pairwise exchange, N−1
  // messages of one block per rank): result is size*block concatenated in
  // rank order.
  std::vector<float> allgather(std::span<const float> block);

  // AllGather of variable-size byte payloads (pairwise exchange; each rank
  // ships its full payload to every peer — the paper's (N−1)·αM pattern).
  // Copies each received payload out; prefer allgatherv_shared on hot paths.
  std::vector<Bytes> allgatherv(const Bytes& mine);

  // Zero-copy AllGatherv: `mine` is moved into a shared buffer that every
  // peer reads in place, so the (N−1)·αM traffic costs zero host-side
  // copies. Result holds one immutable view per source rank (entry rank()
  // is this rank's own payload). Do not mutate the viewed bytes.
  std::vector<SharedBytes> allgatherv_shared(Bytes mine);

  // AlltoAll of equal float chunks: `send` is size N·chunk, chunk i goes to
  // rank i; returns N·chunk with chunk j received from rank j.
  std::vector<float> alltoall(std::span<const float> send, int64_t chunk);

  // AlltoAll of variable byte payloads: send[i] goes to rank i; returns
  // payloads indexed by source rank. send.size() must equal size().
  std::vector<Bytes> alltoallv(std::vector<Bytes> send);

  // Gather of variable-size byte payloads to `root`. Returns one payload
  // per rank on the root, an empty vector elsewhere.
  std::vector<Bytes> gatherv(const Bytes& mine, int root);

  // Chunk [begin, end) of a length-`total` vector owned by `rank` under the
  // ring algorithms' contiguous partitioning.
  std::pair<int64_t, int64_t> chunk_range(int64_t total, int chunk_rank) const;

  // --- building blocks for external collectives (chunked_collectives.h) ---
  // Reserves `count` consecutive sequence tags and returns the first one.
  // SPMD contract: every rank must reserve the same count at the same point
  // in the per-channel collective order, exactly like calling a collective —
  // the returned tags then line up across ranks.
  uint64_t reserve_tags(int64_t count);
  // Packs `data` into a wire buffer acquired from this rank's pool and
  // sends it: one copy (host -> wire), no allocation in steady state.
  void send_float_block(int dst, uint64_t tag, std::span<const float> data);
  // Owned byte payload at an explicitly reserved tag — the byte-level
  // analogue of send_float_block for collectives whose per-round peers
  // differ across ranks (e.g. recursive doubling), where the implicit
  // per-channel sequence tags of send_bytes would diverge.
  void send_bytes_block(int dst, uint64_t tag, Bytes msg);
  // Receives the payload sent at a reserved tag. The caller owns the buffer
  // and may recycle it into pool() once consumed.
  Bytes recv_bytes_block(int src, uint64_t tag);
  // Receives a float payload of exactly dst.size()/acc.size() elements,
  // applies it in place (no intermediate std::vector<float>), and recycles
  // the wire buffer into this rank's pool.
  void recv_copy_block(int src, uint64_t tag, std::span<float> dst);
  void recv_reduce_block(int src, uint64_t tag, std::span<float> acc,
                         ReduceOp op);

 private:
  // Sub-group constructor: `members` maps group rank -> fabric rank,
  // `tag_space` is the fabric-allocated namespace id (0 = world).
  Communicator(Fabric& fabric, std::shared_ptr<const std::vector<int>> members,
               int group_rank, int channel_id, int tag_space);
  // Fabric-level rank of group rank r (identity on world).
  int global(int r) const {
    return members_ ? (*members_)[static_cast<size_t>(r)] : r;
  }
  // The [tag_space:8][channel:8] prefix shared by every tag of this
  // communicator.
  uint64_t tag_base() const;
  uint64_t next_tag();
  // Every collective receive funnels through here. When the fabric has a
  // recv deadline configured, the wait is sliced: each timeout slice first
  // tries to recover a recoverably-dropped message (retry-with-backoff for
  // retryable faults); an exhausted deadline throws TimeoutError naming the
  // blocked (src, dst, tag) edge and bumps the "comm.timeouts" metric.
  Bytes checked_recv(int src, uint64_t tag);
  // Same deadline/recovery discipline, returning a shared (zero-copy) view.
  SharedBytes checked_recv_shared(int src, uint64_t tag);
  // Uninstrumented bodies shared by the public entry points, so a collective
  // built on another (alltoall -> alltoallv, allgather -> allgatherv_shared)
  // traces one span and counts its payload bytes exactly once. The ring
  // behind allreduce and reduce_scatter is ring_walk (chunked_collectives.h).
  std::vector<Bytes> alltoallv_impl(std::vector<Bytes> send);
  std::vector<SharedBytes> allgatherv_shared_impl(Bytes mine);

  Fabric* fabric_;
  // Group rank -> fabric rank; null on world communicators (identity map).
  std::shared_ptr<const std::vector<int>> members_;
  int rank_;         // group-relative rank
  int global_rank_;  // fabric-level rank
  int channel_id_;
  int tag_space_ = 0;  // fabric-allocated namespace id; 0 = world
  uint64_t seq_ = 0;
};

// Applies `op` elementwise: acc = op(acc, in).
void reduce_into(std::span<float> acc, std::span<const float> in, ReduceOp op);

}  // namespace embrace::comm
