// Negotiated priority scheduler: the distributed form of the comm thread.
//
// Problem: collectives must execute in the same order on every rank or they
// deadlock, but a work-conserving priority queue pops whatever is ready
// *locally* — thread timing could diverge across ranks. Horovod solves this
// with a coordinator that globally orders tensor operations; EmbRace
// "is integrated with Horovod ... but takes control of the communication
// operations" (§5.1) and inherits that coordination. We implement it
// directly: rank 0's comm thread picks the highest-priority submitted op
// from its own queue and announces the choice on a dedicated control
// channel; every rank's comm thread executes the announced op (waiting, if
// needed, for its local training thread to submit it). SPMD symmetry makes
// rank 0's readiness representative, and the announced order is identical
// everywhere by construction.
//
// Negotiation units (DESIGN.md §10). Every unit runs whole: a plain op is
// a one-member unit, and ops submitted while a Group is open form one
// unit together. The leader announces a unit once, naming its first
// member, and every rank runs its members back to back; an op submitted
// meanwhile, however urgent, waits for the running unit to finish. The
// trainer submits a step's gradient ops as one group and its lookup as
// another. "sched.announcements" counts announced units (leader only, stop
// token excluded).
//
// Replay (Horovod's response cache). Each unit gets a publication index
// when it becomes visible: a plain op at submit, a group at close(). A
// group's signature is its members in run order, each as its name with
// every digit run replaced by '#'. Plain ops have none and are never
// replayed, so the leader's priority pick among them holds. Once the last
// 2P announced units (P <= 4) are two repeats of one period of groups, the
// leader marks that announcement with the period. After the marked unit
// runs, every rank runs its lowest-index pending unit without any message
// as long as its signature repeats the period; the first unit that does
// not (by SPMD submission order, the same unit everywhere) leaves replay
// and is negotiated as above. So a steady-state step costs no control
// message. In replay, units run in publication order rather than by the
// leader's priority pick across pending units; within a unit the order is
// unchanged. A shutdown with a drained queue leaves replay, and the stop
// token is announced as usual. "sched.replayed" counts units run without
// an announcement (leader only).
//
// FIFO mode is the same machinery with priority = submission sequence.
//
// Failure propagation (DESIGN.md §8). An op body that throws (e.g. a
// TimeoutError from a faulted collective) fails its own handle with the
// original exception, fails every other pending handle fast with a
// SchedulerError — the rest of its group included — and retires the comm
// thread: Handle::wait() rethrows instead of hanging. A follower whose
// leader stops announcing while ops are pending times out against the
// fabric's recv deadline and fails the same way, and so does a follower
// told to run an op it never submits, or told to stop while ops are still
// pending locally. abort() is the non-collective teardown for error
// paths: it stops the comm thread without the stop-token negotiation
// (which would need live peers) and fails all pending handles, staged
// group members included.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "comm/communicator.h"
#include "sched/scheduler.h"

namespace embrace::sched {

class NegotiatedScheduler {
 public:
  // `control` must be a dedicated channel of the cluster's fabric (no other
  // traffic may use its tag namespace). All ranks must construct their
  // scheduler with matching channels.
  explicit NegotiatedScheduler(comm::Communicator control);
  // Joins the comm thread. All ranks must have called shutdown() (or have
  // joined every handle and then destroy simultaneously via shutdown());
  // a failed/aborted scheduler is torn down locally via abort().
  ~NegotiatedScheduler();

  NegotiatedScheduler(const NegotiatedScheduler&) = delete;
  NegotiatedScheduler& operator=(const NegotiatedScheduler&) = delete;

  // Enqueues an op (execution contract in sched/scheduler.h). `desc.name`
  // must be identical across ranks for the same logical op, unique among
  // unexecuted ops, and free of the byte '\x02', which marks an arming
  // announcement. Throws SchedulerError once the scheduler has failed or
  // been aborted.
  Handle submit(OpDesc desc, std::function<void()> body);

  // One op whose body runs body(0) .. body(slices-1) back to back
  // (`slices` >= 1). It is negotiated, recorded and completed as a single
  // op; the overload remains for the scheduler layer of perfbench.
  Handle submit(OpDesc desc, int64_t slices, SliceFn body);

  // An open op group. Ops submitted while it is open (from any thread) get
  // their Handle at once but stay invisible to the comm thread until
  // close() publishes them together as one negotiation unit. Outside
  // replay the leader picks units by (lowest member priority, submission
  // order) and announces each once, naming its first member; every rank
  // then runs the members in (priority, submission) order without
  // re-picking in between — so members' names, priorities and submission
  // order must agree across ranks. Each
  // member keeps its own ExecRecord, trace span and Handle, and completes
  // as soon as it finishes. Destroying a group that was not closed (an
  // exception between open and close) fails its staged ops: a partial
  // group is never published.
  class Group {
   public:
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;
    ~Group();
    // Publishes the staged ops as one unit (none if nothing was staged, or
    // if the scheduler failed meanwhile and already failed them).
    void close();

   private:
    friend class NegotiatedScheduler;
    explicit Group(NegotiatedScheduler& scheduler) : scheduler_(&scheduler) {}
    NegotiatedScheduler* scheduler_;  // null once closed
  };

  // Opens a group. One group at a time: opening a second one before the
  // first is closed or destroyed throws.
  [[nodiscard]] Group open_group();

  // Blocks until every op submitted so far on this rank has executed.
  // Non-collective (the comm thread keeps serving announcements). Rethrows
  // the first op failure if the scheduler failed (the backlog is failed
  // fast, so this cannot wedge on ops that will never run). Throws inside
  // an open group, whose staged ops cannot run before it closes.
  void drain();

  // Collective shutdown: blocks until every submitted op has executed, then
  // stops the comm threads on all ranks. Must be called by all ranks.
  void shutdown();

  // Local, non-collective teardown for error paths: stops this rank's comm
  // thread without announcing (peers may be dead), joins it, and fails all
  // pending handles with SchedulerError. Idempotent; safe after failure.
  void abort();

  // True once an op body threw or abort() was called; submit() will throw.
  bool failed() const;

  // Execution log in completion order.
  std::vector<ExecRecord> records() const;

 private:
  struct Op;
  // A negotiation unit in run order: a group's members, or one plain op.
  using Unit = std::vector<std::shared_ptr<Op>>;
  void run();
  // Sends `name` to every follower; a nonzero `period` arms replay.
  void announce(const std::string& name, int period);
  // Polls for the leader's announcement in abortable slices. Applies the
  // fabric's recv deadline only while ops are pending locally (the leader
  // should be announcing then); an idle scheduler may wait forever.
  // Returns empty if aborted.
  std::string receive_announcement();
  // Waits on `lock` (held on mutex_) until an op is pending, shutdown was
  // requested or the scheduler aborted. Returns false if it aborted.
  bool await_work(std::unique_lock<std::mutex>& lock);
  // The unit `op` belongs to. Caller holds mutex_.
  Unit unit_of(const std::shared_ptr<Op>& op) const;
  // The pending unit with the lowest publication index, or an empty one if
  // nothing is pending. Caller holds mutex_.
  Unit lowest_pending_unit() const;
  // A group's replay signature; "" for a plain op, which never replays.
  static std::string signature(const Unit& unit);
  // Appends an announced unit's signature to announced_. On the leader,
  // returns the replay period its announcement arms, or 0.
  int record_announced(const Unit& unit);
  // Runs `op` on the comm thread. Returns false if the scheduler failed
  // (the comm thread must retire).
  bool run_op(const std::shared_ptr<Op>& op);
  // Runs a unit's members in order. Returns false if the scheduler failed.
  bool run_unit(const Unit& unit);
  // Group::close() and the unclosed Group's destructor.
  void close_group();
  void discard_group();
  // Fails every pending handle and marks the scheduler failed. Records the
  // first failure cause. Caller must not hold mutex_.
  void fail_all(std::exception_ptr cause);
  // Fails `op`'s handle with `error` (no-op if already finished). Caller
  // must not hold op->state->mutex.
  static void fail_op(const std::shared_ptr<Op>& op, std::exception_ptr error);

  comm::Communicator control_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // Submitted, not yet executed; keyed by name.
  std::unordered_map<std::string, std::shared_ptr<Op>> submitted_;
  // Members of the open group, not yet visible to the comm thread.
  std::vector<std::shared_ptr<Op>> staged_;
  bool group_open_ = false;
  uint64_t next_unit_ = 0;  // the next publication index
  uint64_t next_seq_ = 0;
  bool shutdown_requested_ = false;
  std::atomic<bool> abort_{false};
  std::exception_ptr failed_;  // guarded by mutex_; terminal once set
  // Announcement index; only touched by the comm thread.
  uint64_t announce_seq_ = 0;
  // Comm thread only: signatures of the latest announced units, oldest
  // first ("" for a plain op), and the armed replay period with the
  // position of the next unit in it (empty when not replaying).
  std::deque<std::string> announced_;
  std::vector<std::string> plan_;
  size_t plan_pos_ = 0;
  std::vector<ExecRecord> records_;
  std::chrono::steady_clock::time_point epoch_;
  std::thread thread_;
};

}  // namespace embrace::sched
