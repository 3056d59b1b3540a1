// Value types of the communication scheduler (NegotiatedScheduler, in
// sched/negotiated_scheduler.h): the typed op descriptor, its waitable
// handle, the completion record, and the scheduler's error type. Ops are
// described by an OpDesc (name, priority, payload bytes, kind) instead of
// encoding priority and size into name strings.
//
// Chunk granularity (DESIGN.md §10). An op may be submitted as `slices`
// ordered quanta: the scheduler calls body(0), body(1), ... body(slices-1)
// in strictly increasing order, but between two quanta it is free to run
// slices of other, more urgent ops — a late-arriving high-priority op
// preempts an in-flight chunked transfer at a chunk boundary instead of
// waiting behind the whole thing. (A member of an op group runs all its
// slices back to back; see NegotiatedScheduler::Group.) Every preemption (switching away from a
// partially-executed op) bumps the "sched.preemptions" counter. Handles
// complete when the final slice finishes; if any slice throws, the op fails
// with that exception and the remaining slices never run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/error.h"

namespace embrace::sched {

// Thrown for scheduler-lifecycle failures: an op abandoned because an
// earlier op threw, a handle orphaned by scheduler destruction, or a
// submission into a failed/stopped scheduler.
class SchedulerError : public Error {
 public:
  explicit SchedulerError(const std::string& what) : Error(what) {}
};

// Coarse op class, for tracing and policy (e.g. bucket assignment).
enum class OpKind {
  kOther,
  kDense,          // dense-gradient AllReduce
  kSparsePrior,    // Algorithm 1's prior sparse part
  kSparseDelayed,  // Algorithm 1's delayed sparse part
  kEmbData,        // embedding-lookup AlltoAll
};

const char* op_kind_name(OpKind k);

// Completion record for tests, timeline rendering, and the perf
// observatory (seconds since scheduler construction). For chunked ops,
// start is the first slice's start and end the final slice's end. kind and
// bytes are copied from the OpDesc so per-OpKind bytes-on-wire can be
// aggregated from the log alone.
struct ExecRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  OpKind kind = OpKind::kOther;
  int64_t bytes = 0;
};

// Typed op descriptor. Lower priority value = more urgent; ties break by
// submission order. `name` must be unique among unexecuted ops (and, for
// NegotiatedScheduler, identical across ranks for the same logical op).
// `bytes` is the op's payload size (informational: tracing + bucket
// policy), not enforced.
struct OpDesc {
  std::string name;
  double priority = 0.0;
  int64_t bytes = 0;
  OpKind kind = OpKind::kOther;
};

namespace detail {

// Completion state shared between a Handle and its op. Schedulers complete
// or fail it via the helpers below; Handle::wait() blocks on it.
struct OpState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;  // set iff the op failed or was abandoned
};

// Marks the op successfully completed (no-op if already finished).
void complete_op_state(const std::shared_ptr<OpState>& state);
// Fails the op with `error` (no-op if already finished).
void fail_op_state(const std::shared_ptr<OpState>& state,
                   std::exception_ptr error);

}  // namespace detail

// Waitable completion token for one op.
class Handle {
 public:
  Handle() = default;
  // For scheduler implementations; user code receives handles from submit().
  explicit Handle(std::shared_ptr<detail::OpState> s) : state_(std::move(s)) {}

  // Blocks until the op has been executed by the comm thread. Rethrows the
  // op's exception if its body threw (or a SchedulerError if the op was
  // abandoned before running).
  void wait() const;
  bool valid() const { return state_ != nullptr; }
  // True once the op finished (successfully or not). Never blocks.
  bool done() const;
  // True if the op failed; wait() would rethrow. Never blocks.
  bool failed() const;

 private:
  std::shared_ptr<detail::OpState> state_;
};

// One chunk quantum of an op's body: called with the slice index, in
// strictly increasing order from 0 to slices-1.
using SliceFn = std::function<void(int64_t)>;

}  // namespace embrace::sched
