#include "nn/optim.h"

#include <cmath>

#include "common/error.h"

namespace embrace::nn {

// --- dense ---

void Sgd::step() {
  for (Parameter* p : params_) {
    p->value.add_scaled_(p->grad, -lr_);
    p->zero_grad();
  }
}

Adagrad::Adagrad(std::vector<Parameter*> params, float lr, float eps)
    : DenseOptimizer(std::move(params)), lr_(lr), eps_(eps) {
  for (Parameter* p : params_) accum_.emplace_back(p->value.shape());
}

void Adagrad::step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    auto g = p->grad.flat();
    auto a = accum_[i].flat();
    auto w = p->value.flat();
    for (size_t k = 0; k < g.size(); ++k) {
      a[k] += g[k] * g[k];
      w[k] -= lr_ * g[k] / (std::sqrt(a[k]) + eps_);
    }
    p->zero_grad();
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps)
    : DenseOptimizer(std::move(params)),
      lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++step_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    auto g = p->grad.flat();
    auto m = m_[i].flat();
    auto v = v_[i].flat();
    auto w = p->value.flat();
    for (size_t k = 0; k < g.size(); ++k) {
      m[k] = beta1_ * m[k] + (1.0f - beta1_) * g[k];
      v[k] = beta2_ * v[k] + (1.0f - beta2_) * g[k] * g[k];
      const float mhat = m[k] / bc1;
      const float vhat = v[k] / bc2;
      w[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    p->zero_grad();
  }
}

// --- sparse ---

namespace {

void check_coalesced(const SparseRows& grad) {
  EMBRACE_CHECK(grad.is_coalesced(),
                << "sparse optimizers require coalesced gradients");
}

std::span<float> state_row(Tensor& state, int64_t row) {
  EMBRACE_CHECK(row >= 0 && row < state.rows(), << "state row out of range");
  return state.row(row);
}

void copy_out(const Tensor& state, int64_t row, std::span<float> dst) {
  EMBRACE_CHECK(row >= 0 && row < state.rows(), << "state row out of range");
  auto src = state.row(row);
  EMBRACE_CHECK_EQ(dst.size(), src.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

void copy_in(Tensor& state, int64_t row, int64_t col_begin,
             std::span<const float> src) {
  auto dst = state_row(state, row);
  EMBRACE_CHECK(col_begin >= 0 &&
                    static_cast<size_t>(col_begin) + src.size() <= dst.size(),
                << "state column span out of range");
  std::copy(src.begin(), src.end(),
            dst.begin() + static_cast<ptrdiff_t>(col_begin));
}

}  // namespace

void SparseOptimizer::export_state(int, int64_t, std::span<float>) const {
  EMBRACE_CHECK(false, << "optimizer has no per-row state slots");
}

void SparseOptimizer::import_state(int, int64_t, int64_t,
                                   std::span<const float>) {
  EMBRACE_CHECK(false, << "optimizer has no per-row state slots");
}

void SparseSgd::apply(Tensor& table, const SparseRows& grad, SparseStep mode) {
  (void)mode;  // SGD is element-wise; split application is trivially exact.
  check_coalesced(grad);
  for (int64_t k = 0; k < grad.nnz_rows(); ++k) {
    auto g = grad.values().row(k);
    auto w = table.row(grad.indices()[static_cast<size_t>(k)]);
    for (size_t c = 0; c < g.size(); ++c) w[c] -= lr_ * g[c];
  }
}

SparseAdagrad::SparseAdagrad(int64_t rows, int64_t dim, float lr, float eps)
    : lr_(lr), eps_(eps), accum_({rows, dim}) {}

void SparseAdagrad::apply(Tensor& table, const SparseRows& grad,
                          SparseStep mode) {
  (void)mode;  // element-wise, like SGD
  check_coalesced(grad);
  EMBRACE_CHECK_EQ(table.rows(), accum_.rows());
  for (int64_t k = 0; k < grad.nnz_rows(); ++k) {
    const int64_t row = grad.indices()[static_cast<size_t>(k)];
    auto g = grad.values().row(k);
    auto a = accum_.row(row);
    auto w = table.row(row);
    for (size_t c = 0; c < g.size(); ++c) {
      a[c] += g[c] * g[c];
      w[c] -= lr_ * g[c] / (std::sqrt(a[c]) + eps_);
    }
  }
}

void SparseAdagrad::export_state(int slot, int64_t row,
                                 std::span<float> dst) const {
  EMBRACE_CHECK_EQ(slot, 0);
  copy_out(accum_, row, dst);
}

void SparseAdagrad::import_state(int slot, int64_t row, int64_t col_begin,
                                 std::span<const float> src) {
  EMBRACE_CHECK_EQ(slot, 0);
  copy_in(accum_, row, col_begin, src);
}

SparseAdam::SparseAdam(int64_t rows, int64_t dim, float lr, bool modified,
                       float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps), modified_(modified),
      m_({rows, dim}), v_({rows, dim}) {}

void SparseAdam::apply(Tensor& table, const SparseRows& grad,
                       SparseStep mode) {
  check_coalesced(grad);
  EMBRACE_CHECK_EQ(table.rows(), m_.rows());
  EMBRACE_CHECK_EQ(grad.dim(), m_.cols());
  // Step accounting (the §5.7 modification). The effective step used for
  // bias correction is the *upcoming* step for a prior part, so that the
  // delayed part — applied after the counter advances — uses the same one.
  int64_t effective_step;
  if (!modified_ || mode == SparseStep::kFull ||
      mode == SparseStep::kDelayed) {
    effective_step = ++step_;
  } else {  // modified kPrior: peek at the next step without advancing
    effective_step = step_ + 1;
  }
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(effective_step));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(effective_step));
  for (int64_t k = 0; k < grad.nnz_rows(); ++k) {
    const int64_t row = grad.indices()[static_cast<size_t>(k)];
    auto g = grad.values().row(k);
    auto m = m_.row(row);
    auto v = v_.row(row);
    auto w = table.row(row);
    for (size_t c = 0; c < g.size(); ++c) {
      m[c] = beta1_ * m[c] + (1.0f - beta1_) * g[c];
      v[c] = beta2_ * v[c] + (1.0f - beta2_) * g[c] * g[c];
      const float mhat = m[c] / bc1;
      const float vhat = v[c] / bc2;
      w[c] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void SparseAdam::export_state(int slot, int64_t row,
                              std::span<float> dst) const {
  EMBRACE_CHECK(slot == 0 || slot == 1);
  copy_out(slot == 0 ? m_ : v_, row, dst);
}

void SparseAdam::import_state(int slot, int64_t row, int64_t col_begin,
                              std::span<const float> src) {
  EMBRACE_CHECK(slot == 0 || slot == 1);
  copy_in(slot == 0 ? m_ : v_, row, col_begin, src);
}

}  // namespace embrace::nn
