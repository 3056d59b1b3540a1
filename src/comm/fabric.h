// In-process message fabric: the transport under the Communicator.
//
// This is the repo's substitute for NCCL/MPI point-to-point transport
// (see DESIGN.md §2). Each of the N ranks is a thread; send() enqueues an
// owned byte buffer into the destination rank's mailbox keyed by
// (source, tag); recv() blocks until a matching message arrives. Message
// order is FIFO per (source, tag) pair, matching MPI's non-overtaking rule.
//
// The fabric also keeps per-(src,dst) traffic counters. Collective
// algorithms are validated against the paper's analytic message counts
// (Table 2) through these counters, and the partitioning ablation uses them
// to measure load imbalance.
//
// Zero-copy fan-out (DESIGN.md §9). A payload may be sent as a SharedBytes
// (send_shared): the fabric enqueues aliases of one physical buffer instead
// of copies, and receivers that call recv_shared read the sender's bytes
// directly — this is what makes AllGatherv's (N−1)·αM traffic pattern cost
// zero host-side copies. The owning recv()/try_recv_for() still return
// owned Bytes: a shared payload is always copied out (drawing the copy from
// the destination rank's BufferPool). It is never moved out or recycled,
// even by the apparent last owner — use_count() is a relaxed load, so
// claiming the buffer for mutation would race with the originator's
// post-send reads; only the shared_ptr's final release may free it.
//
// Buffer pooling (DESIGN.md §9). The fabric owns one BufferPool per rank
// (pool(rank)); the Communicator's collectives acquire their wire buffers
// from the sender's pool and release consumed receive buffers into the
// receiver's. The fabric itself never releases a buffer to a pool: parked
// (recoverably dropped) and duplicated envelopes own their payloads until
// the receive side consumes them, so recovery can never alias pooled memory.
//
// Fault model (DESIGN.md §8). Each link (src,dst) can be configured with a
// deterministic, seeded FaultConfig: per-message drop / duplicate / reorder
// probabilities and a uniform delay distribution (added to the message's
// ready time, never to the sender). A recoverable drop parks
// the message in the destination's `lost` queue; the receive side recovers
// it on demand (recover()), emulating a retransmission after a receiver
// timeout. An unrecoverable drop is a black hole: the message is gone and
// the receiver's deadline (try_recv_for) is the only way out. Duplicates
// are delivered exactly once to the application: every send gets a unique
// envelope id and the pop path discards stale copies.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "comm/buffer_pool.h"
#include "common/error.h"
#include "simnet/topology.h"

namespace embrace::comm {

struct TrafficCounters {
  int64_t messages = 0;
  int64_t bytes = 0;
};

// Emulated per-link delivery cost under the α–β model (α = per-message
// wire latency, β = per-byte cost = 1 / bandwidth): a message of n bytes
// becomes visible to its receiver alpha_us + n / bytes_per_us microseconds
// after it leaves the sender's NIC (either term may be zero). Only the
// n / bytes_per_us term occupies the sender's egress (LogGP's G); α is
// latency on the wire (LogGP's L), so back-to-back sends overlap their α.
// The sending thread is never held. This is the in-process stand-in for
// wire latency/bandwidth, and the ground truth the obs::LinkProfiler is
// validated against.
struct LinkCost {
  double alpha_us = 0.0;      // α: fixed per-message start latency
  double bytes_per_us = 0.0;  // bandwidth (1/β); 0 = infinite

  bool any() const { return alpha_us > 0.0 || bytes_per_us > 0.0; }
  // Serialization time of `bytes` at the sender's egress: n·β. A message
  // sent on an idle egress is ready alpha_us + wire_us(n) after the send.
  double wire_us(size_t bytes) const {
    return bytes_per_us > 0.0 ? static_cast<double>(bytes) / bytes_per_us
                              : 0.0;
  }
};

// The two routes of a dense AllReduce (DESIGN.md §10).
enum class DenseAllReduceAlgo { kRing, kOneShot };

// Prices both routes of a dense AllReduce of `bytes` over `n` ranks on
// `link` under the round model the fabric charges (α once per round, a
// sender's bytes serialized on its egress) and returns the cheaper one:
//   ring:     2(N−1)·(α + ⌈B/N⌉·β)  2(N−1) dependent rounds of one block;
//   one-shot: α + (N−1)·B·β          one round, but the sender's egress
//                                     serializes N−1 copies of the buffer.
// Ties go to the ring, so a fabric without link costs keeps it. Pass the
// group's worst link (Communicator::worst_link): every rank reads the same
// table, so the pick is a pure function of (B, N, table) and agrees across
// ranks.
DenseAllReduceAlgo pick_dense_allreduce(int64_t bytes, int n,
                                        const LinkCost& link);

// Thrown when a receive misses its deadline. Names the blocked edge so a
// dead peer surfaces as a diagnosable error instead of a silent hang.
class TimeoutError : public Error {
 public:
  TimeoutError(int src, int dst, uint64_t tag, const std::string& what)
      : Error(what), src_(src), dst_(dst), tag_(tag) {}
  int src() const { return src_; }
  int dst() const { return dst_; }
  uint64_t tag() const { return tag_; }

 private:
  int src_;
  int dst_;
  uint64_t tag_;
};

// Per-link fault injection parameters. All decisions for the k-th message
// on a link are a pure function of (seed, src, dst, k), so a fixed seed
// replays the same chaos regardless of wall-clock timing (per-link message
// order is still up to the sending threads).
struct FaultConfig {
  double drop_prob = 0.0;     // P(first transmission is dropped)
  double dup_prob = 0.0;      // P(message enqueued twice)
  double reorder_prob = 0.0;  // P(message jumps the per-(src,tag) queue)
  uint64_t delay_max_us = 0;  // uniform extra delivery delay in [0, max]
  // true: dropped messages are recoverable via recover() — models a
  // retransmission. false: dropped messages are lost forever (dead link).
  bool recoverable = true;

  bool any() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || reorder_prob > 0.0 ||
           delay_max_us > 0;
  }
};

class Fabric {
 public:
  explicit Fabric(int num_ranks);

  int num_ranks() const { return num_ranks_; }

  // Moves `msg` into dst's mailbox. src/dst in [0, num_ranks).
  void send(int src, int dst, uint64_t tag, Bytes msg);

  // Enqueues an alias of `msg` (no payload copy). The caller and all other
  // receivers share one physical buffer; it must not be mutated after this
  // call. Sending the same SharedBytes to many peers is the zero-copy
  // fan-out primitive under AllGatherv.
  void send_shared(int src, int dst, uint64_t tag, SharedBytes msg);

  // Blocks until a message with the given (src, tag) arrives at dst.
  // Shared payloads are always copied out via dst's BufferPool (see the
  // zero-copy notes above: they may never be claimed for mutation).
  Bytes recv(int dst, int src, uint64_t tag);

  // Blocking receive of a shared view: never copies the payload. For
  // owned sends the payload is wrapped (moved, not copied) into the handle.
  SharedBytes recv_shared(int dst, int src, uint64_t tag);

  // Bounded receive: returns std::nullopt if no matching message arrived
  // (became ready) within `timeout`; a message still in flight stays
  // queued. Never throws on timeout — callers that want a typed
  // failure wrap this (Communicator turns an exhausted deadline into
  // TimeoutError naming the edge).
  std::optional<Bytes> try_recv_for(int dst, int src, uint64_t tag,
                                    std::chrono::microseconds timeout);
  // Bounded variant of recv_shared.
  std::optional<SharedBytes> try_recv_shared_for(
      int dst, int src, uint64_t tag, std::chrono::microseconds timeout);

  // The per-rank wire-buffer pool (see buffer_pool.h). Collectives acquire
  // send buffers from their own rank's pool and release consumed receive
  // buffers into it.
  BufferPool& pool(int rank);

  // Moves one recoverably-dropped message for (src, tag) back into dst's
  // live queue — the in-process stand-in for "receiver timed out, sender
  // retransmits". Returns false if nothing was parked for that key.
  // Counts into the "fabric.retries" metric.
  bool recover(int dst, int src, uint64_t tag);

  // --- fault injection ---

  // Applies `cfg` to every link. Seeds the deterministic per-link fault
  // streams. Call before traffic starts (not thread-safe vs in-flight
  // send/recv).
  void set_fault_config(const FaultConfig& cfg, uint64_t seed = 1);
  // Overrides the config for one directed link (src -> dst).
  void set_link_faults(int src, int dst, const FaultConfig& cfg);
  // True if any link has faults configured (hot-path gate).
  bool faults_enabled() const {
    return faults_enabled_.load(std::memory_order_relaxed);
  }

  // --- link-cost emulation (α–β model) ---

  // Applies `cost` to every link. Call before traffic starts (not
  // thread-safe vs in-flight sends). With a cost configured, deliver()
  // stamps each cross-rank message with a ready time and returns at once:
  //   ready_at = max(now, egress_free) + bytes·β + α,
  // then advances the sending rank's egress clock by bytes·β. One egress
  // clock serves all of a rank's sends (one per rank and tier under a
  // topology), so a rank's bytes serialize on its NIC while the α of
  // back-to-back sends overlaps. Receives do not see a message before its
  // ready time. The obs::LinkProfiler (when enabled) samples ready_at minus
  // the send time, egress queueing included, which is how tests validate
  // the α–β fit against a known configuration.
  void set_uniform_link_cost(const LinkCost& cost);
  bool link_costs_enabled() const {
    return link_costs_enabled_.load(std::memory_order_relaxed);
  }
  // The effective α–β cost of one directed link (default-constructed when
  // none was set). Exposed so tests can assert what set_topology derived.
  LinkCost link_cost(int src, int dst) const;

  // --- cluster topology (two-tier α–β model) ---

  // Declares the rank → node map derived from `topo` (ranks packed into
  // consecutive blocks of gpus_per_node, the simnet layout) and derives the
  // full n×n link-cost table from two per-tier costs: same-node pairs get
  // `intra`, cross-node pairs get `inter`. This replaces hand-set n×n
  // tables for the common two-tier cluster (PCIe within a node, shared NIC
  // across nodes). Requires topo.total_gpus() == num_ranks(). Call before
  // traffic starts (not thread-safe vs in-flight sends).
  void set_topology(const simnet::ClusterTopology& topo, const LinkCost& intra,
                    const LinkCost& inter);
  bool has_topology() const { return has_topology_; }
  // Cluster shape; a fabric without a topology is one node of num_ranks().
  int nodes() const { return nodes_; }
  int gpus_per_node() const { return gpus_per_node_; }
  // Node housing `rank` (0 for every rank until set_topology is called).
  int node_of(int rank) const;
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  // Rank's index within its node (== rank when there is no topology).
  int local_index(int rank) const;

  // Traffic split by tier: same-node vs cross-node deliveries, counted on
  // the send side. Self-sends never touch a link and are not counted.
  // Without a topology every cross-rank delivery counts as intra-node.
  // Mirrored into the obs counters comm.bytes{tier=intra|inter}.
  TrafficCounters tier_traffic(bool intra) const;

  // Allocates a fresh communicator tag-space id. Communicator::split calls
  // this (on one rank, then broadcasts) to give each sub-group a tag
  // namespace disjoint from its parent's and from other splits'. Id 0 is
  // reserved for world communicators.
  int allocate_tag_space();

  // Default receive budget for deadline-aware callers (the Communicator).
  // 0 = block forever. Stored here so every rank/channel sharing the
  // fabric inherits one policy.
  void set_recv_timeout(std::chrono::microseconds timeout);
  std::chrono::microseconds recv_timeout() const {
    return std::chrono::microseconds(
        recv_timeout_us_.load(std::memory_order_relaxed));
  }

  // Traffic sent from src to dst since construction (or last reset).
  TrafficCounters traffic(int src, int dst) const;
  // Aggregate traffic sent by `src` to all peers.
  TrafficCounters traffic_from(int src) const;
  TrafficCounters total_traffic() const;
  // Traffic *received* over src -> dst (counted when the receiver pops the
  // message, not when the sender enqueues it). Under fault injection
  // send-side and recv-side counters differ by exactly the unrecovered
  // drops and discarded duplicates — the balance the fault tests assert.
  TrafficCounters recv_traffic(int src, int dst) const;
  TrafficCounters total_recv_traffic() const;
  void reset_traffic();

  // Number of live (src,tag) keys in dst's mailbox (tests assert the
  // footprint stays bounded: drained queues must be erased, not kept as
  // empty deques).
  size_t mailbox_keys(int dst) const;
  // Number of messages parked as recoverable losses at dst.
  size_t lost_messages(int dst) const;

 private:
  // One transmission. `id` is unique per send() call; duplicates share the
  // id so the pop path can deliver exactly once. The payload is either
  // owned (the common point-to-point case, no control-block allocation) or
  // shared (zero-copy fan-out: duplicates and peers alias one buffer).
  struct Envelope {
    uint64_t id = 0;
    Bytes owned;
    SharedBytes shared;  // non-null iff sent via send_shared
    // Earliest time a receive may see this message (link latency, egress
    // queueing and fault delay); the clock's epoch when none applies.
    std::chrono::steady_clock::time_point ready_at{};

    size_t size() const { return shared ? shared->size() : owned.size(); }
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    // key = (src << 48) | tag
    std::unordered_map<uint64_t, std::deque<Envelope>> queues;
    // Recoverably dropped messages, same keying.
    std::unordered_map<uint64_t, std::deque<Envelope>> lost;
  };

  struct PairCounters {
    std::atomic<int64_t> messages{0};
    std::atomic<int64_t> bytes{0};
  };

  // Outcome of the fault roll for one message.
  struct FaultDecision {
    bool drop = false;
    bool recoverable = true;
    bool dup = false;
    bool reorder = false;
    uint64_t delay_us = 0;
  };

  static uint64_t key(int src, uint64_t tag);
  const FaultConfig& link_config(int src, int dst) const;
  FaultDecision roll_faults(int src, int dst);
  // Shared delivery path under send()/send_shared(): fault roll, traffic
  // accounting, enqueue.
  void deliver(int src, int dst, uint64_t tag, Envelope env);
  // Advances src's egress clock for the tier towards dst by bytes·β and
  // returns the message's ready time: egress finish + α.
  std::chrono::steady_clock::time_point stamp_ready(
      int src, int dst, size_t bytes, std::chrono::steady_clock::time_point now);
  // Pops the front message for `k`, discarding duplicate envelopes and
  // erasing the queue when drained. Caller holds box.mutex.
  Envelope pop_locked(Mailbox& box, uint64_t k);
  // The receive path under recv/recv_shared/try_recv*: waits until the
  // front message of (src, tag) at dst is ready, pops it and records the
  // receive. nullopt when `deadline` passes first; an in-flight message
  // then stays queued.
  std::optional<Envelope> pop_ready(
      int dst, int src, uint64_t tag,
      std::optional<std::chrono::steady_clock::time_point> deadline);
  // Converts a popped envelope into an owned buffer: move for owned or
  // last-reference shared payloads, pooled copy otherwise.
  Bytes unwrap(Envelope&& env, int dst);
  // Converts a popped envelope into a shared view: never copies; owned
  // payloads are moved into the handle.
  static SharedBytes share(Envelope&& env);
  // `waited_for` is the ready time the receive slept until (the epoch if
  // it did not wait); its wake-up lateness goes to "fabric.recv.late_us".
  void record_recv(int src, int dst, size_t bytes,
                   std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point waited_for);

  int num_ranks_;
  std::vector<std::unique_ptr<BufferPool>> pools_;  // one per rank
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<PairCounters>> counters_;  // n*n, row-major
  std::vector<std::unique_ptr<PairCounters>> recv_counters_;  // n*n
  std::vector<LinkCost> link_cost_;  // n*n, row-major
  // Per-rank egress clocks, [rank * 2 + (inter-node ? 1 : 0)], as
  // steady_clock ticks: when the rank's NIC finishes serializing the bytes
  // already sent on that tier.
  std::vector<std::unique_ptr<std::atomic<int64_t>>> egress_free_;
  std::atomic<bool> link_costs_enabled_{false};
  // Topology state: rank → node map (empty until set_topology) plus the
  // cluster shape, and per-tier traffic counters ([0] = intra, [1] = inter).
  std::vector<int> node_map_;
  bool has_topology_ = false;
  int nodes_ = 1;
  int gpus_per_node_;
  PairCounters tier_counters_[2];
  std::atomic<int> next_tag_space_{1};
  // Fault state: per-link configs (n*n, row-major) + per-link message
  // counters feeding the deterministic fault stream.
  std::vector<FaultConfig> link_cfg_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> link_msg_counter_;
  std::atomic<bool> faults_enabled_{false};
  uint64_t fault_seed_ = 1;
  std::atomic<int64_t> recv_timeout_us_{0};
  std::atomic<uint64_t> next_envelope_id_{1};
};

}  // namespace embrace::comm
