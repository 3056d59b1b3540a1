#include "sched/scheduler.h"

#include <utility>

namespace embrace::sched {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kOther: return "other";
    case OpKind::kDense: return "dense";
    case OpKind::kSparsePrior: return "sparse-prior";
    case OpKind::kSparseDelayed: return "sparse-delayed";
    case OpKind::kEmbData: return "embdata";
  }
  return "?";
}

namespace detail {

void complete_op_state(const std::shared_ptr<OpState>& state) {
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->done) return;
    state->done = true;
  }
  state->cv.notify_all();
}

void fail_op_state(const std::shared_ptr<OpState>& state,
                   std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->done) return;
    state->done = true;
    state->error = std::move(error);
  }
  state->cv.notify_all();
}

}  // namespace detail

void Handle::wait() const {
  EMBRACE_CHECK(state_ != nullptr, << "waiting on an invalid handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
}

bool Handle::done() const {
  EMBRACE_CHECK(state_ != nullptr, << "querying an invalid handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

bool Handle::failed() const {
  EMBRACE_CHECK(state_ != nullptr, << "querying an invalid handle");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done && state_->error != nullptr;
}

}  // namespace embrace::sched
