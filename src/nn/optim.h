// Optimizers: dense (SGD / Adagrad / Adam over Parameters) and sparse
// (row-wise over an embedding table given SparseRows gradients), including
// the paper's modified Adam (§5.7).
//
// The modification: with Vertical Sparse Scheduling each sparse gradient is
// split into a prior and a delayed part, applied by two optimizer calls.
// SGD/Adagrad are fully element-wise, so two calls on disjoint row sets
// equal one call on their union. Adam's `step` state is global: a naive
// second call would advance it twice and skew the bias correction. The
// modified Adam applies the prior part with the upcoming step's bias
// correction WITHOUT advancing the counter, and advances it only when the
// delayed part lands — making the split update exactly equal to a one-shot
// update on disjoint row sets (tested in optim_test / embrace tests).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/module.h"
#include "tensor/sparse_rows.h"

namespace embrace::nn {

// --- dense optimizers ---

class DenseOptimizer {
 public:
  explicit DenseOptimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~DenseOptimizer() = default;
  // Applies accumulated grads and zeroes them.
  virtual void step() = 0;

 protected:
  std::vector<Parameter*> params_;
};

class Sgd : public DenseOptimizer {
 public:
  Sgd(std::vector<Parameter*> params, float lr)
      : DenseOptimizer(std::move(params)), lr_(lr) {}
  void step() override;

 private:
  float lr_;
};

class Adagrad : public DenseOptimizer {
 public:
  Adagrad(std::vector<Parameter*> params, float lr, float eps = 1e-10f);
  void step() override;

 private:
  float lr_, eps_;
  std::vector<Tensor> accum_;
};

class Adam : public DenseOptimizer {
 public:
  Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step() override;
  int64_t steps() const { return step_; }

 private:
  float lr_, beta1_, beta2_, eps_;
  int64_t step_ = 0;
  std::vector<Tensor> m_, v_;
};

// --- sparse (row-wise) optimizers over an embedding table ---

// How a sparse apply() interacts with Adam's step counter (Algorithm 1's
// two-part updates). Irrelevant for the element-wise optimizers.
enum class SparseStep {
  kFull,     // ordinary call: advance step, then apply
  kPrior,    // EmbRace prior part: apply with next step's correction,
             // do NOT advance
  kDelayed,  // EmbRace delayed part: advance step, apply with the same
             // correction the prior part used
};

class SparseOptimizer {
 public:
  virtual ~SparseOptimizer() = default;

  // `grad` must be coalesced (disjoint row updates are what makes the
  // two-part application exact). `table` is the (rows × dim) parameter.
  virtual void apply(Tensor& table, const SparseRows& grad,
                     SparseStep mode = SparseStep::kFull) = 0;

  // --- per-row state transfer (hot-row cache promotion/demotion) ---
  // Row-wise optimizer state moves between a column-sharded optimizer and
  // a full-dim one when a row changes owner: export hands out one state
  // row per slot, import writes a column span of it back. Slots: SGD none,
  // Adagrad {accum}, Adam {m, v}. Adam's global step counter is NOT part
  // of a row's state — both sides advance theirs once per training step,
  // which is what keeps the bias corrections aligned.
  virtual int state_slots() const { return 0; }
  // Copies state slot `slot` of `row` (the optimizer's full row width)
  // into `dst` (dst.size() must equal that width).
  virtual void export_state(int slot, int64_t row,
                            std::span<float> dst) const;
  // Overwrites columns [col_begin, col_begin + src.size()) of state slot
  // `slot` of `row`.
  virtual void import_state(int slot, int64_t row, int64_t col_begin,
                            std::span<const float> src);
};

class SparseSgd : public SparseOptimizer {
 public:
  explicit SparseSgd(float lr) : lr_(lr) {}
  void apply(Tensor& table, const SparseRows& grad, SparseStep mode) override;

 private:
  float lr_;
};

class SparseAdagrad : public SparseOptimizer {
 public:
  SparseAdagrad(int64_t rows, int64_t dim, float lr, float eps = 1e-10f);
  void apply(Tensor& table, const SparseRows& grad, SparseStep mode) override;
  int state_slots() const override { return 1; }  // {accum}
  void export_state(int slot, int64_t row,
                    std::span<float> dst) const override;
  void import_state(int slot, int64_t row, int64_t col_begin,
                    std::span<const float> src) override;

 private:
  float lr_, eps_;
  Tensor accum_;
};

// PyTorch-style sparse Adam. `modified` selects the paper's step-counter
// fix; with modified = false, kPrior/kDelayed behave like kFull (the naive
// two-call variant the paper warns about — kept for the ablation).
class SparseAdam : public SparseOptimizer {
 public:
  SparseAdam(int64_t rows, int64_t dim, float lr, bool modified = true,
             float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);
  void apply(Tensor& table, const SparseRows& grad, SparseStep mode) override;
  int64_t steps() const { return step_; }
  int state_slots() const override { return 2; }  // {m, v}
  void export_state(int slot, int64_t row,
                    std::span<float> dst) const override;
  void import_state(int slot, int64_t row, int64_t col_begin,
                    std::span<const float> src) override;

 private:
  float lr_, beta1_, beta2_, eps_;
  bool modified_;
  int64_t step_ = 0;
  Tensor m_, v_;  // (rows × dim) first/second moment state
};

}  // namespace embrace::nn
