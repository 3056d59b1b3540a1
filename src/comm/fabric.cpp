#include "comm/fabric.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"

namespace embrace::comm {
namespace {

// Bucket edges for recv-side blocking time (microseconds).
constexpr double kWaitEdgesUs[] = {1.0,   10.0,   100.0,   1000.0,
                                   1e4,   1e5,    1e6};
// Bucket edges for how late a receive wakes after a message's ready time.
constexpr double kLateEdgesUs[] = {1.0, 5.0, 20.0, 100.0, 1000.0, 1e4};

// A timed condvar wait on Linux wakes up to the thread's timer slack late
// (50 µs by default), as large as the workloads' α. Waits for a message's
// ready time run with 1 ns of slack instead; the setting is per thread and
// applies to this process only.
void tighten_timer_slack() {
#ifdef __linux__
  thread_local bool done = false;
  if (done) return;
  done = true;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

// `us` microseconds in steady_clock ticks. Absurd costs are clamped to an
// hour: duration_cast of a huge double would overflow the clock's integral
// representation.
int64_t ticks(double us) {
  constexpr double kMaxUs = 3.6e9;
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::micro>(std::min(us, kMaxUs)))
      .count();
}

uint64_t splitmix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1) from a 64-bit hash.
double to_unit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Fabric::Fabric(int num_ranks)
    : num_ranks_(num_ranks), gpus_per_node_(num_ranks) {
  EMBRACE_CHECK_GE(num_ranks, 1);
  mailboxes_.reserve(static_cast<size_t>(num_ranks));
  pools_.reserve(static_cast<size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    pools_.push_back(std::make_unique<BufferPool>());
  }
  const size_t links = static_cast<size_t>(num_ranks) * num_ranks;
  counters_.reserve(links);
  recv_counters_.reserve(links);
  link_msg_counter_.reserve(links);
  for (size_t i = 0; i < links; ++i) {
    counters_.push_back(std::make_unique<PairCounters>());
    recv_counters_.push_back(std::make_unique<PairCounters>());
    link_msg_counter_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  link_cfg_.resize(links);
  link_cost_.resize(links);
  egress_free_.reserve(static_cast<size_t>(num_ranks) * 2);
  for (int i = 0; i < num_ranks * 2; ++i) {
    egress_free_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  }
}

uint64_t Fabric::key(int src, uint64_t tag) {
  EMBRACE_CHECK_LT(tag, (uint64_t{1} << 48), << "tag space exhausted");
  return (static_cast<uint64_t>(src) << 48) | tag;
}

void Fabric::set_fault_config(const FaultConfig& cfg, uint64_t seed) {
  fault_seed_ = seed;
  for (auto& link : link_cfg_) link = cfg;
  for (auto& c : link_msg_counter_) c->store(0);
  faults_enabled_.store(cfg.any(), std::memory_order_relaxed);
}

void Fabric::set_link_faults(int src, int dst, const FaultConfig& cfg) {
  EMBRACE_CHECK(src >= 0 && src < num_ranks_, << "bad src rank " << src);
  EMBRACE_CHECK(dst >= 0 && dst < num_ranks_, << "bad dst rank " << dst);
  link_cfg_[static_cast<size_t>(src) * num_ranks_ + dst] = cfg;
  bool any = false;
  for (const auto& link : link_cfg_) any = any || link.any();
  faults_enabled_.store(any, std::memory_order_relaxed);
}

void Fabric::set_uniform_link_cost(const LinkCost& cost) {
  for (auto& c : link_cost_) c = cost;
  link_costs_enabled_.store(cost.any(), std::memory_order_relaxed);
}

LinkCost Fabric::link_cost(int src, int dst) const {
  EMBRACE_CHECK(src >= 0 && src < num_ranks_, << "bad src rank " << src);
  EMBRACE_CHECK(dst >= 0 && dst < num_ranks_, << "bad dst rank " << dst);
  return link_cost_[static_cast<size_t>(src) * num_ranks_ + dst];
}

void Fabric::set_topology(const simnet::ClusterTopology& topo,
                          const LinkCost& intra, const LinkCost& inter) {
  EMBRACE_CHECK_GE(topo.nodes, 1);
  EMBRACE_CHECK_GE(topo.gpus_per_node, 1);
  EMBRACE_CHECK_EQ(topo.total_gpus(), num_ranks_,
                   << "topology does not cover the fabric");
  nodes_ = topo.nodes;
  gpus_per_node_ = topo.gpus_per_node;
  node_map_.resize(static_cast<size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    node_map_[static_cast<size_t>(r)] = r / gpus_per_node_;
  }
  has_topology_ = true;
  bool any = false;
  for (int src = 0; src < num_ranks_; ++src) {
    for (int dst = 0; dst < num_ranks_; ++dst) {
      const LinkCost& cost = same_node(src, dst) ? intra : inter;
      link_cost_[static_cast<size_t>(src) * num_ranks_ + dst] = cost;
      any = any || cost.any();
    }
  }
  link_costs_enabled_.store(any, std::memory_order_relaxed);
}

int Fabric::node_of(int rank) const {
  EMBRACE_CHECK(rank >= 0 && rank < num_ranks_, << "bad rank " << rank);
  if (node_map_.empty()) return 0;
  return node_map_[static_cast<size_t>(rank)];
}

int Fabric::local_index(int rank) const {
  EMBRACE_CHECK(rank >= 0 && rank < num_ranks_, << "bad rank " << rank);
  if (!has_topology_) return rank;
  return rank % gpus_per_node_;
}

TrafficCounters Fabric::tier_traffic(bool intra) const {
  const PairCounters& c = tier_counters_[intra ? 0 : 1];
  return {c.messages.load(), c.bytes.load()};
}

int Fabric::allocate_tag_space() {
  const int id = next_tag_space_.fetch_add(1, std::memory_order_relaxed);
  // The Communicator packs the tag-space id into 8 bits of the wire tag.
  EMBRACE_CHECK_LT(id, 256, << "communicator tag-space ids exhausted");
  return id;
}

void Fabric::set_recv_timeout(std::chrono::microseconds timeout) {
  recv_timeout_us_.store(timeout.count(), std::memory_order_relaxed);
}

const FaultConfig& Fabric::link_config(int src, int dst) const {
  return link_cfg_[static_cast<size_t>(src) * num_ranks_ + dst];
}

Fabric::FaultDecision Fabric::roll_faults(int src, int dst) {
  FaultDecision d;
  const FaultConfig& cfg = link_config(src, dst);
  if (!cfg.any()) return d;
  const size_t link = static_cast<size_t>(src) * num_ranks_ + dst;
  const uint64_t k = link_msg_counter_[link]->fetch_add(1);
  // Four independent draws from the (seed, link, k) stream.
  const uint64_t base =
      splitmix64(fault_seed_ ^ (static_cast<uint64_t>(link) << 32) ^ k);
  d.drop = to_unit(splitmix64(base ^ 0x1)) < cfg.drop_prob;
  d.dup = to_unit(splitmix64(base ^ 0x2)) < cfg.dup_prob;
  d.reorder = to_unit(splitmix64(base ^ 0x3)) < cfg.reorder_prob;
  if (cfg.delay_max_us > 0) {
    d.delay_us = splitmix64(base ^ 0x4) % (cfg.delay_max_us + 1);
  }
  d.recoverable = cfg.recoverable;
  return d;
}

void Fabric::send(int src, int dst, uint64_t tag, Bytes msg) {
  Envelope env;
  env.id = next_envelope_id_.fetch_add(1, std::memory_order_relaxed);
  env.owned = std::move(msg);
  deliver(src, dst, tag, std::move(env));
}

void Fabric::send_shared(int src, int dst, uint64_t tag, SharedBytes msg) {
  EMBRACE_CHECK(msg != nullptr, << "null shared payload");
  Envelope env;
  env.id = next_envelope_id_.fetch_add(1, std::memory_order_relaxed);
  env.shared = std::move(msg);
  deliver(src, dst, tag, std::move(env));
}

std::chrono::steady_clock::time_point Fabric::stamp_ready(
    int src, int dst, size_t bytes, std::chrono::steady_clock::time_point now) {
  using Clock = std::chrono::steady_clock;
  const LinkCost& cost =
      link_cost_[static_cast<size_t>(src) * num_ranks_ + dst];
  if (!cost.any()) return now;
  const int64_t wire = ticks(cost.wire_us(bytes));
  const int64_t start = now.time_since_epoch().count();
  std::atomic<int64_t>& egress =
      *egress_free_[static_cast<size_t>(src) * 2 +
                    (same_node(src, dst) ? 0 : 1)];
  int64_t free = egress.load(std::memory_order_relaxed);
  int64_t done = 0;
  do {
    done = std::max(start, free) + wire;
  } while (!egress.compare_exchange_weak(free, done,
                                         std::memory_order_relaxed));
  return Clock::time_point(Clock::duration(done + ticks(cost.alpha_us)));
}

void Fabric::deliver(int src, int dst, uint64_t tag, Envelope env) {
  EMBRACE_CHECK(src >= 0 && src < num_ranks_, << "bad src rank " << src);
  EMBRACE_CHECK(dst >= 0 && dst < num_ranks_, << "bad dst rank " << dst);
  FaultDecision fault;
  if (faults_enabled()) fault = roll_faults(src, dst);
  // α–β link emulation: stamp the time the message lands and return; the
  // receive side waits for it. Self deliveries are a local memcpy, not a
  // wire — never charged. Nothing reads the clock when nothing delays the
  // message and the profiler is off.
  const bool charged = src != dst && link_costs_enabled();
  const bool profiled = src != dst && obs::link_profiler().enabled();
  if (charged || profiled || fault.delay_us > 0) {
    const auto now = std::chrono::steady_clock::now();
    env.ready_at = charged ? stamp_ready(src, dst, env.size(), now) : now;
    env.ready_at += std::chrono::microseconds(fault.delay_us);
    // The profiler samples the modelled wire time, egress queueing
    // included. How late receivers wake is host noise, kept apart in the
    // "fabric.recv.late_us" histogram.
    if (profiled) {
      obs::link_profiler().record(
          src, dst, static_cast<int64_t>(env.size()),
          std::chrono::duration<double, std::micro>(env.ready_at - now)
              .count());
    }
  }
  auto& c = *counters_[static_cast<size_t>(src) * num_ranks_ + dst];
  c.messages.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(static_cast<int64_t>(env.size()),
                    std::memory_order_relaxed);
  static obs::Counter& send_messages = obs::counter("fabric.send.messages");
  static obs::Counter& send_bytes = obs::counter("fabric.send.bytes");
  send_messages.increment();
  send_bytes.add(static_cast<int64_t>(env.size()));
  // Per-tier accounting: which side of the node boundary did this delivery
  // cross? Self-sends never touch a link and are not counted.
  if (src != dst) {
    const bool intra = same_node(src, dst);
    PairCounters& tier = tier_counters_[intra ? 0 : 1];
    tier.messages.fetch_add(1, std::memory_order_relaxed);
    tier.bytes.fetch_add(static_cast<int64_t>(env.size()),
                         std::memory_order_relaxed);
    static obs::Counter& intra_bytes = obs::counter("comm.bytes{tier=intra}");
    static obs::Counter& inter_bytes = obs::counter("comm.bytes{tier=inter}");
    (intra ? intra_bytes : inter_bytes)
        .add(static_cast<int64_t>(env.size()));
  }
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  const uint64_t k = key(src, tag);
  if (fault.drop) {
    static obs::Counter& dropped = obs::counter("fabric.dropped");
    dropped.increment();
    obs::emit_instant("fabric.drop", "src", src, "dst", dst);
    if (!fault.recoverable) return;  // black hole
    // The parked envelope keeps owning (or aliasing) its payload until the
    // receiver recovers it — never handed to a pool in the meantime.
    std::lock_guard<std::mutex> lock(box.mutex);
    box.lost[k].push_back(std::move(env));
    return;  // no notify: the message is invisible until recover()
  }
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    auto& q = box.queues[k];
    if (fault.dup) {
      static obs::Counter& duplicated = obs::counter("fabric.duplicated");
      duplicated.increment();
      // Duplicates of owned payloads deep-copy; shared ones just alias.
      Envelope dup;
      dup.id = env.id;
      dup.owned = env.owned;
      dup.shared = env.shared;
      dup.ready_at = env.ready_at;
      q.push_back(std::move(dup));
    }
    if (fault.reorder && !q.empty()) {
      static obs::Counter& reordered = obs::counter("fabric.reordered");
      reordered.increment();
      q.push_front(std::move(env));
    } else {
      q.push_back(std::move(env));
    }
  }
  box.cv.notify_all();
}

Fabric::Envelope Fabric::pop_locked(Mailbox& box, uint64_t k) {
  auto it = box.queues.find(k);
  auto& q = it->second;
  Envelope env = std::move(q.front());
  q.pop_front();
  // Exactly-once delivery under duplicate faults: discard other copies.
  for (auto qi = q.begin(); qi != q.end();) {
    qi = (qi->id == env.id) ? q.erase(qi) : qi + 1;
  }
  // Erase drained keys: per-op tags are unique, so keeping empty deques
  // would grow the map without bound over long runs.
  if (q.empty()) box.queues.erase(it);
  return env;
}

Bytes Fabric::unwrap(Envelope&& env, int dst) {
  if (!env.shared) return std::move(env.owned);
  // Shared payloads are strictly read-only: even holding the apparent last
  // reference, `use_count()` is a relaxed load, so claiming the buffer for
  // mutation would race with the originator's post-send reads. Take a pooled
  // copy and let the shared_ptr's (properly synchronized) final release free
  // the original.
  const Bytes& src = *env.shared;
  Bytes out = pool(dst).acquire(src.size());
  if (!out.empty()) std::memcpy(out.data(), src.data(), out.size());
  return out;
}

SharedBytes Fabric::share(Envelope&& env) {
  if (env.shared) return std::move(env.shared);
  return std::make_shared<Bytes>(std::move(env.owned));
}

void Fabric::record_recv(int src, int dst, size_t bytes,
                         std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point waited_for) {
  const auto t1 = std::chrono::steady_clock::now();
  auto& c = *recv_counters_[static_cast<size_t>(src) * num_ranks_ + dst];
  c.messages.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  static obs::Counter& recv_messages = obs::counter("fabric.recv.messages");
  static obs::Counter& recv_bytes = obs::counter("fabric.recv.bytes");
  static obs::Histogram& wait_us =
      obs::histogram("fabric.recv.wait_us", kWaitEdgesUs);
  static obs::Histogram& late_us =
      obs::histogram("fabric.recv.late_us", kLateEdgesUs);
  recv_messages.increment();
  recv_bytes.add(static_cast<int64_t>(bytes));
  wait_us.observe(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  if (waited_for != std::chrono::steady_clock::time_point{}) {
    late_us.observe(
        std::chrono::duration<double, std::micro>(t1 - waited_for).count());
  }
}

Bytes Fabric::recv(int dst, int src, uint64_t tag) {
  return unwrap(*pop_ready(dst, src, tag, std::nullopt), dst);
}

SharedBytes Fabric::recv_shared(int dst, int src, uint64_t tag) {
  return share(*pop_ready(dst, src, tag, std::nullopt));
}

std::optional<Bytes> Fabric::try_recv_for(int dst, int src, uint64_t tag,
                                          std::chrono::microseconds timeout) {
  auto env =
      pop_ready(dst, src, tag, std::chrono::steady_clock::now() + timeout);
  if (!env) return std::nullopt;
  return unwrap(std::move(*env), dst);
}

std::optional<SharedBytes> Fabric::try_recv_shared_for(
    int dst, int src, uint64_t tag, std::chrono::microseconds timeout) {
  auto env =
      pop_ready(dst, src, tag, std::chrono::steady_clock::now() + timeout);
  if (!env) return std::nullopt;
  return share(std::move(*env));
}

std::optional<Fabric::Envelope> Fabric::pop_ready(
    int dst, int src, uint64_t tag,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  using Clock = std::chrono::steady_clock;
  EMBRACE_CHECK(src >= 0 && src < num_ranks_, << "bad src rank " << src);
  EMBRACE_CHECK(dst >= 0 && dst < num_ranks_, << "bad dst rank " << dst);
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  const uint64_t k = key(src, tag);
  const auto t0 = Clock::now();
  // The ready time this receive slept until, if it had to.
  Clock::time_point waited_for{};
  std::unique_lock<std::mutex> lock(box.mutex);
  while (true) {
    auto it = box.queues.find(k);
    if (it == box.queues.end() || it->second.empty()) {
      if (!deadline) {
        box.cv.wait(lock);
        continue;
      }
      if (Clock::now() >= *deadline) return std::nullopt;
      box.cv.wait_until(lock, *deadline);
      continue;
    }
    const Clock::time_point ready = it->second.front().ready_at;
    // Envelopes without a ready time skip the clock read.
    if (ready == Clock::time_point{}) break;
    const Clock::time_point now = Clock::now();
    if (ready <= now) break;
    if (deadline && *deadline <= now) return std::nullopt;
    // The front message is in flight: sleep until it lands (or the
    // deadline), waking early only for new deliveries. A reordered or
    // recovered envelope may become the new front meanwhile; the loop
    // re-reads it.
    tighten_timer_slack();
    waited_for = ready;
    box.cv.wait_until(lock, deadline ? std::min(*deadline, ready) : ready);
  }
  Envelope env = pop_locked(box, k);
  lock.unlock();
  record_recv(src, dst, env.size(), t0, waited_for);
  return env;
}

BufferPool& Fabric::pool(int rank) {
  EMBRACE_CHECK(rank >= 0 && rank < num_ranks_, << "bad rank " << rank);
  return *pools_[static_cast<size_t>(rank)];
}

bool Fabric::recover(int dst, int src, uint64_t tag) {
  EMBRACE_CHECK(src >= 0 && src < num_ranks_, << "bad src rank " << src);
  EMBRACE_CHECK(dst >= 0 && dst < num_ranks_, << "bad dst rank " << dst);
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  const uint64_t k = key(src, tag);
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    auto it = box.lost.find(k);
    if (it == box.lost.end() || it->second.empty()) return false;
    box.queues[k].push_back(std::move(it->second.front()));
    it->second.pop_front();
    if (it->second.empty()) box.lost.erase(it);
  }
  static obs::Counter& retries = obs::counter("fabric.retries");
  retries.increment();
  box.cv.notify_all();
  return true;
}

TrafficCounters Fabric::traffic(int src, int dst) const {
  const auto& c = *counters_[static_cast<size_t>(src) * num_ranks_ + dst];
  return {c.messages.load(), c.bytes.load()};
}

TrafficCounters Fabric::traffic_from(int src) const {
  TrafficCounters out;
  for (int dst = 0; dst < num_ranks_; ++dst) {
    const auto t = traffic(src, dst);
    out.messages += t.messages;
    out.bytes += t.bytes;
  }
  return out;
}

TrafficCounters Fabric::total_traffic() const {
  TrafficCounters out;
  for (int src = 0; src < num_ranks_; ++src) {
    const auto t = traffic_from(src);
    out.messages += t.messages;
    out.bytes += t.bytes;
  }
  return out;
}

TrafficCounters Fabric::recv_traffic(int src, int dst) const {
  const auto& c =
      *recv_counters_[static_cast<size_t>(src) * num_ranks_ + dst];
  return {c.messages.load(), c.bytes.load()};
}

TrafficCounters Fabric::total_recv_traffic() const {
  TrafficCounters out;
  for (int src = 0; src < num_ranks_; ++src) {
    for (int dst = 0; dst < num_ranks_; ++dst) {
      const auto t = recv_traffic(src, dst);
      out.messages += t.messages;
      out.bytes += t.bytes;
    }
  }
  return out;
}

void Fabric::reset_traffic() {
  for (auto& c : counters_) {
    c->messages.store(0);
    c->bytes.store(0);
  }
  for (auto& c : recv_counters_) {
    c->messages.store(0);
    c->bytes.store(0);
  }
  for (auto& tier : tier_counters_) {
    tier.messages.store(0);
    tier.bytes.store(0);
  }
}

size_t Fabric::mailbox_keys(int dst) const {
  EMBRACE_CHECK(dst >= 0 && dst < num_ranks_, << "bad dst rank " << dst);
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  std::lock_guard<std::mutex> lock(box.mutex);
  return box.queues.size();
}

size_t Fabric::lost_messages(int dst) const {
  EMBRACE_CHECK(dst >= 0 && dst < num_ranks_, << "bad dst rank " << dst);
  Mailbox& box = *mailboxes_[static_cast<size_t>(dst)];
  std::lock_guard<std::mutex> lock(box.mutex);
  size_t n = 0;
  for (const auto& [k, q] : box.lost) n += q.size();
  return n;
}

}  // namespace embrace::comm
