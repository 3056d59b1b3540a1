#include "sched/negotiated_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace embrace::sched {
namespace {

constexpr double kQueueDepthEdges[] = {0, 1, 2, 4, 8, 16, 32, 64};

// Announcement sentinel that stops every comm thread.
const char kStopToken[] = "\x01__stop__";

// An announcement that arms replay ends in this byte and then the period.
// Op names never contain it, so it also separates a signature's fields.
constexpr char kArmMarker = '\x02';

// Longest replay period, in units; the leader keeps the signatures of the
// last 2·kMaxPeriod announced units.
constexpr size_t kMaxPeriod = 4;

// Slice length for the follower's abortable announcement poll. Latency is
// unaffected (the wait wakes as soon as a message lands); the slice only
// bounds how fast abort() and the pending-deadline check are noticed.
constexpr std::chrono::microseconds kAnnouncePollSlice{10000};

// Announcement payloads cycle through the rank's wire-buffer pool: the
// comm thread sends one per peer per announced unit, so steady state
// allocates nothing.
comm::Bytes to_bytes(comm::BufferPool& pool, const std::string& s) {
  comm::Bytes b = pool.acquire(s.size());
  if (!b.empty()) std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string from_bytes(const comm::Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

struct NegotiatedScheduler::Op {
  OpDesc desc;
  uint64_t seq = 0;
  uint64_t unit = 0;     // publication index of its negotiation unit
  bool grouped = false;  // staged in an op group
  std::function<void()> fn;
  std::shared_ptr<detail::OpState> state =
      std::make_shared<detail::OpState>();
};

void NegotiatedScheduler::fail_op(const std::shared_ptr<Op>& op,
                                  std::exception_ptr error) {
  detail::fail_op_state(op->state, std::move(error));
}

NegotiatedScheduler::NegotiatedScheduler(comm::Communicator control)
    : control_(control),
      epoch_(std::chrono::steady_clock::now()),
      thread_([this] { run(); }) {}

NegotiatedScheduler::~NegotiatedScheduler() {
  if (!thread_.joinable()) return;
  if (failed()) {
    abort();
  } else {
    shutdown();
  }
}

bool NegotiatedScheduler::failed() const {
  if (abort_.load(std::memory_order_relaxed)) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_ != nullptr;
}

Handle NegotiatedScheduler::submit(OpDesc desc, std::function<void()> body) {
  EMBRACE_CHECK(desc.name != kStopToken, << "reserved op name");
  EMBRACE_CHECK(desc.name.find(kArmMarker) == std::string::npos,
                << "op name contains the reserved byte \\x02");
  EMBRACE_CHECK(static_cast<bool>(body), << "op '" << desc.name
                                         << "' needs a body");
  std::shared_ptr<Op> op = std::make_shared<Op>();
  op->desc = std::move(desc);
  op->fn = std::move(body);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_ || abort_.load(std::memory_order_relaxed)) {
      // Fail fast: this op would never be announced or executed.
      throw SchedulerError(
          "submit('" + op->desc.name + "') on a " +
          (failed_ ? "failed scheduler: " + describe(failed_)
                   : std::string("scheduler that was aborted")));
    }
    EMBRACE_CHECK(!shutdown_requested_, << "submit after shutdown");
    EMBRACE_CHECK(submitted_.find(op->desc.name) == submitted_.end() &&
                      std::none_of(staged_.begin(), staged_.end(),
                                   [&](const std::shared_ptr<Op>& o) {
                                     return o->desc.name == op->desc.name;
                                   }),
                  << "duplicate unexecuted op: " << op->desc.name);
    op->seq = next_seq_++;
    if (group_open_) {
      // Invisible to the comm thread until the group closes.
      op->grouped = true;
      staged_.push_back(op);
      return Handle(op->state);
    }
    op->unit = next_unit_++;
    submitted_.emplace(op->desc.name, op);
  }
  cv_.notify_all();
  return Handle(op->state);
}

Handle NegotiatedScheduler::submit(OpDesc desc, int64_t slices,
                                   SliceFn body) {
  EMBRACE_CHECK_GE(slices, 1, << "op '" << desc.name << "'");
  EMBRACE_CHECK(static_cast<bool>(body), << "op '" << desc.name
                                         << "' needs a body");
  return submit(std::move(desc), [slices, fn = std::move(body)] {
    for (int64_t i = 0; i < slices; ++i) fn(i);
  });
}

NegotiatedScheduler::Group NegotiatedScheduler::open_group() {
  std::lock_guard<std::mutex> lock(mutex_);
  EMBRACE_CHECK(!group_open_, << "an op group is already open");
  group_open_ = true;
  return Group(*this);
}

NegotiatedScheduler::Group::~Group() {
  if (scheduler_ != nullptr) scheduler_->discard_group();
}

void NegotiatedScheduler::Group::close() {
  EMBRACE_CHECK(scheduler_ != nullptr, << "op group closed twice");
  std::exchange(scheduler_, nullptr)->close_group();
}

void NegotiatedScheduler::close_group() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    group_open_ = false;
    // All members become visible in one critical section, under one
    // publication index: a follower that finds the announced member finds
    // the whole unit.
    if (!staged_.empty()) {
      const uint64_t unit = next_unit_++;
      for (const auto& op : staged_) {
        op->unit = unit;
        submitted_.emplace(op->desc.name, op);
      }
      staged_.clear();
    }
  }
  cv_.notify_all();
}

void NegotiatedScheduler::discard_group() {
  std::vector<std::shared_ptr<Op>> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    group_open_ = false;
    victims.swap(staged_);
  }
  for (const auto& op : victims) {
    fail_op(op, std::make_exception_ptr(SchedulerError(
                    "op abandoned: '" + op->desc.name +
                    "' was in an op group that never closed")));
  }
}

void NegotiatedScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  EMBRACE_CHECK(!group_open_, << "drain() inside an open op group");
  cv_.wait(lock, [&] {
    return submitted_.empty() || failed_ != nullptr ||
           abort_.load(std::memory_order_relaxed);
  });
  if (failed_) std::rethrow_exception(failed_);
  if (abort_.load(std::memory_order_relaxed)) {
    throw SchedulerError("scheduler aborted");
  }
}

void NegotiatedScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void NegotiatedScheduler::abort() {
  {
    // Set under the mutex: an idle comm thread that has just found its
    // wait predicate false must not miss the wake-up, or the join hangs.
    std::lock_guard<std::mutex> lock(mutex_);
    abort_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  fail_all(std::make_exception_ptr(
      SchedulerError("scheduler aborted on rank " +
                     std::to_string(control_.rank()))));
  static obs::Counter& aborts = obs::counter("sched.aborts");
  aborts.increment();
}

void NegotiatedScheduler::fail_all(std::exception_ptr cause) {
  std::vector<std::shared_ptr<Op>> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failed_) failed_ = cause;
    victims.reserve(submitted_.size() + staged_.size());
    for (auto& [name, op] : submitted_) victims.push_back(op);
    submitted_.clear();
    victims.insert(victims.end(), staged_.begin(), staged_.end());
    staged_.clear();
  }
  const std::string why = describe(cause);
  for (const auto& op : victims) {
    fail_op(op, std::make_exception_ptr(SchedulerError(
                    "op abandoned: '" + op->desc.name + "' never executed (" +
                    why + ")")));
  }
  cv_.notify_all();
}

std::vector<ExecRecord> NegotiatedScheduler::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void NegotiatedScheduler::announce(const std::string& name, int period) {
  static_assert(sizeof(uint64_t) == 8);
  static obs::Counter& announcements = obs::counter("sched.announcements");
  if (name != kStopToken) announcements.increment();
  const std::string payload =
      period > 0 ? name + kArmMarker + static_cast<char>(period) : name;
  // One tagged message per peer; the tag is the per-rank announcement index
  // maintained implicitly by both sides walking the same sequence.
  for (int r = 1; r < control_.size(); ++r) {
    control_.send_bytes_at(r, announce_seq_,
                           to_bytes(control_.pool(), payload));
  }
  ++announce_seq_;
}

std::string NegotiatedScheduler::receive_announcement() {
  using std::chrono::steady_clock;
  auto waiting_since = steady_clock::now();
  bool was_pending = false;
  while (true) {
    if (abort_.load(std::memory_order_relaxed)) return {};
    if (auto msg =
            control_.try_recv_bytes_at(0, announce_seq_, kAnnouncePollSlice)) {
      ++announce_seq_;
      std::string name = from_bytes(*msg);
      control_.pool().release(std::move(*msg));
      return name;
    }
    // The fabric's recv deadline applies only while ops are pending (or a
    // collective shutdown awaits its stop token): in both cases the leader
    // owes us an announcement. An idle scheduler may wait forever.
    bool pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending = !submitted_.empty() || shutdown_requested_;
    }
    if (!pending) {
      was_pending = false;
      continue;
    }
    if (!was_pending) {
      was_pending = true;
      waiting_since = steady_clock::now();
    }
    const auto budget = control_.fabric().recv_timeout();
    if (budget.count() > 0 &&
        steady_clock::now() - waiting_since > budget) {
      std::ostringstream os;
      os << "no announcement from leader within " << budget.count()
         << "us while ops are pending on rank " << control_.rank()
         << " (announce seq " << announce_seq_
         << "): leader dead or control link down";
      throw comm::TimeoutError(0, control_.rank(), announce_seq_, os.str());
    }
  }
}

bool NegotiatedScheduler::run_op(const std::shared_ptr<Op>& op) {
  const auto t0 = std::chrono::steady_clock::now();
  std::exception_ptr error;
  try {
    op->fn();
  } catch (...) {
    error = std::current_exception();
  }
  const auto t1 = std::chrono::steady_clock::now();
  // One pair of clock reads feeds both the trace span and the test-visible
  // ExecRecord, so the two timelines agree exactly.
  obs::emit_complete(op->desc.name, t0, t1, "priority",
                     static_cast<int64_t>(op->desc.priority));
  if (error) {
    static obs::Counter& failures = obs::counter("sched.ops_failed");
    failures.increment();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!failed_) failed_ = error;
      submitted_.erase(op->desc.name);
    }
    // The culprit's handle carries the original exception; everything
    // else pending is abandoned fast so no waiter can wedge.
    fail_op(op, error);
    fail_all(std::make_exception_ptr(SchedulerError(
        "op abandoned: scheduler failed in '" + op->desc.name +
        "': " + describe(error))));
    return false;  // comm thread retires; submit() now fails fast
  }
  static obs::Counter& executed = obs::counter("sched.ops_executed");
  executed.increment();
  // Ordering contract: record first, then complete the handle, then
  // retire from submitted_. Handle::wait() returning must imply the op's
  // ExecRecord is visible, and drain() returning must imply every handle
  // observes done().
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back({op->desc.name,
                        std::chrono::duration<double>(t0 - epoch_).count(),
                        std::chrono::duration<double>(t1 - epoch_).count(),
                        op->desc.kind, op->desc.bytes});
  }
  detail::complete_op_state(op->state);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    submitted_.erase(op->desc.name);
    static obs::Histogram& depth =
        obs::histogram("sched.queue_depth", kQueueDepthEdges);
    depth.observe(static_cast<double>(submitted_.size()));
  }
  cv_.notify_all();
  return true;
}

bool NegotiatedScheduler::await_work(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] {
    return !submitted_.empty() || shutdown_requested_ ||
           abort_.load(std::memory_order_relaxed);
  });
  return !abort_.load(std::memory_order_relaxed);
}

NegotiatedScheduler::Unit NegotiatedScheduler::unit_of(
    const std::shared_ptr<Op>& op) const {
  if (!op->grouped) return {op};
  Unit unit;
  for (const auto& [name, member] : submitted_) {
    if (member->unit == op->unit) unit.push_back(member);
  }
  std::sort(unit.begin(), unit.end(),
            [](const std::shared_ptr<Op>& a, const std::shared_ptr<Op>& b) {
              return a->desc.priority != b->desc.priority
                         ? a->desc.priority < b->desc.priority
                         : a->seq < b->seq;
            });
  return unit;
}

NegotiatedScheduler::Unit NegotiatedScheduler::lowest_pending_unit() const {
  const std::shared_ptr<Op>* lowest = nullptr;
  for (const auto& [name, op] : submitted_) {
    if (lowest == nullptr || op->unit < (*lowest)->unit) lowest = &op;
  }
  return lowest == nullptr ? Unit{} : unit_of(*lowest);
}

std::string NegotiatedScheduler::signature(const Unit& unit) {
  std::string sig;
  if (!unit.front()->grouped) return sig;
  for (const auto& op : unit) {
    bool in_digits = false;
    for (const char c : op->desc.name) {
      const bool digit = c >= '0' && c <= '9';
      if (!digit) {
        sig += c;
      } else if (!in_digits) {
        sig += '#';
      }
      in_digits = digit;
    }
    sig += kArmMarker;
  }
  return sig;
}

int NegotiatedScheduler::record_announced(const Unit& unit) {
  announced_.push_back(signature(unit));
  if (announced_.size() > 2 * kMaxPeriod) announced_.pop_front();
  if (control_.rank() != 0) return 0;  // followers arm only on the mark
  // The smallest period P whose last two repeats are the last 2P units,
  // every one of them a group.
  const size_t n = announced_.size();
  for (size_t p = 1; p <= kMaxPeriod && 2 * p <= n; ++p) {
    bool repeats = true;
    for (size_t i = n - 2 * p; repeats && i < n - p; ++i) {
      repeats = !announced_[i].empty() && announced_[i] == announced_[i + p];
    }
    if (repeats) return static_cast<int>(p);
  }
  return 0;
}

bool NegotiatedScheduler::run_unit(const Unit& unit) {
  for (const auto& op : unit) {
    if (!run_op(op)) return false;
  }
  return true;
}

void NegotiatedScheduler::run() {
  const bool leader = control_.rank() == 0;
  static obs::Counter& replayed = obs::counter("sched.replayed");
  // The comm thread inherits its rank's identity so its trace events land
  // in the right per-rank lane group (paper Fig. 6's bottom lane).
  obs::bind_thread(control_.rank(), "comm");
  try {
    while (true) {
      Unit unit;
      if (!plan_.empty()) {
        // Replay: the lowest-index pending unit runs without a message if
        // it repeats the period. Otherwise every rank leaves replay at
        // that unit (SPMD submission makes it the same unit everywhere)
        // and negotiates it below, as it does the stop token of a drained
        // shutdown.
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!await_work(lock)) return;
          unit = lowest_pending_unit();
        }
        if (!unit.empty() && signature(unit) == plan_[plan_pos_]) {
          plan_pos_ = (plan_pos_ + 1) % plan_.size();
          if (leader) replayed.increment();
          if (!run_unit(unit)) return;
          continue;
        }
        plan_.clear();
        unit.clear();
      }

      int period = 0;  // the replay period this unit's announcement arms
      if (leader) {
        std::string chosen = kStopToken;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!await_work(lock)) return;
          // An empty queue here means shutdown: stop everyone.
          if (!submitted_.empty()) {
            // Highest priority = smallest (priority, seq). A group is
            // picked through its most urgent member, which it runs first.
            const Op* best = nullptr;
            for (const auto& [name, candidate] : submitted_) {
              if (best == nullptr ||
                  candidate->desc.priority < best->desc.priority ||
                  (candidate->desc.priority == best->desc.priority &&
                   candidate->seq < best->seq)) {
                best = candidate.get();
              }
            }
            chosen = best->desc.name;
            unit = unit_of(submitted_.at(chosen));
          }
        }
        if (!unit.empty()) period = record_announced(unit);
        if (control_.size() > 1) announce(chosen, period);
        if (unit.empty()) return;  // the stop token
      } else {
        std::string chosen = receive_announcement();
        if (chosen.empty()) return;  // aborted
        if (chosen == kStopToken) {
          // The leader drained its queue, so an op still pending here is
          // one the leader never had: fail it rather than orphan it.
          std::lock_guard<std::mutex> lock(mutex_);
          if (submitted_.empty()) return;
          throw SchedulerError(
              "rank " + std::to_string(control_.rank()) +
              " stopped by the leader with op '" +
              submitted_.begin()->first +
              "' pending: ranks must submit matching ops");
        }
        if (chosen.size() >= 2 && chosen[chosen.size() - 2] == kArmMarker) {
          period = chosen.back();
          chosen.resize(chosen.size() - 2);
        }
        {
          // The leader runs the op already, so a local copy that does not
          // turn up within the recv deadline never will: the ranks
          // submitted different ops.
          std::unique_lock<std::mutex> lock(mutex_);
          const auto submitted = [&] {
            return submitted_.count(chosen) > 0 ||
                   abort_.load(std::memory_order_relaxed);
          };
          const auto budget = control_.fabric().recv_timeout();
          if (budget.count() <= 0) {
            cv_.wait(lock, submitted);
          } else if (!cv_.wait_for(lock, budget, submitted)) {
            throw SchedulerError(
                "rank " + std::to_string(control_.rank()) +
                " never submitted op '" + chosen +
                "', which the leader announced, within " +
                std::to_string(budget.count()) +
                "us: ranks must submit matching ops");
          }
          if (abort_.load(std::memory_order_relaxed)) return;
          unit = unit_of(submitted_.at(chosen));
        }
        EMBRACE_CHECK(unit.front()->desc.name == chosen,
                      << "op group announced as '" << chosen
                      << "' starts with '" << unit.front()->desc.name
                      << "' on rank " << control_.rank()
                      << ": ranks must submit matching groups");
        record_announced(unit);
      }

      if (!run_unit(unit)) return;
      if (period > 0) {
        plan_.assign(announced_.end() - period, announced_.end());
        plan_pos_ = 0;
      }
    }
  } catch (...) {
    // announce()/receive_announcement() threw — dead peer or control-link
    // deadline — or a follower found ops the leader's do not match.
    // Everything pending is failed; waiters see the cause.
    fail_all(std::current_exception());
  }
}

}  // namespace embrace::sched
