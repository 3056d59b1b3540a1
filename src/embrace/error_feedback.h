// Rank-local error-feedback residual state for lossy gradient codecs
// (DESIGN.md §14).
//
// Error feedback (1-bit SGD / EF-SGD lineage, PAPERS.md): whatever a lossy
// codec drops from the gradient of step t is remembered rank-locally and
// added back into the gradient of step t+1 before the next encode, so the
// compression error telescopes instead of accumulating — the property that
// keeps top-k sparsification convergent. The residual update itself lives
// in comm::codec_error_feedback (data += residual; data = project(data);
// residual = pre - data); this class owns a sparse table's *state*: where
// residuals live and how they align with this step's gradient rows. The
// fused dense-gradient buffer has fixed geometry, so the trainer keeps its
// residual as one plain vector.
//
// Residuals are strictly rank-local (never communicated — that is the
// point: every rank repairs its own quantization error) and are touched
// from one thread at a time (feedback runs either on the main thread
// before submission or on the single comm thread inside an op body, never
// both for the same residual).
#pragma once

#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "common/error.h"
#include "tensor/sparse_rows.h"
#include "tensor/tensor.h"

namespace embrace::core {

// Residuals for one embedding table: a dense (rows × dim) tensor, row r
// holding the accumulated quantization error of vocab row r. Each step only
// the rows present in the gradient are gathered, fed through the codec's
// feedback update, and scattered back; untouched rows keep their residual
// until their row is next live (the standard sparse-EF bookkeeping).
class SparseErrorFeedback {
 public:
  SparseErrorFeedback(int64_t rows, int64_t dim) : residual_({rows, dim}) {}

  // Applies error feedback to `grad` in place. `grad` must be coalesced
  // (duplicate indices would double-inject the same residual row) and its
  // geometry must match the holder's. No-op for lossless codecs.
  void apply(SparseRows& grad, const comm::Codec& codec) {
    if (codec.lossless()) return;
    EMBRACE_CHECK_EQ(grad.num_total_rows(), residual_.rows());
    EMBRACE_CHECK_EQ(grad.dim(), residual_.cols());
    const std::vector<int64_t>& ids = grad.indices();
    const int64_t dim = grad.dim();
    scratch_.resize(ids.size() * static_cast<size_t>(dim));
    for (size_t k = 0; k < ids.size(); ++k) {
      const auto src = residual_.row(ids[k]);
      std::copy(src.begin(), src.end(),
                scratch_.begin() + static_cast<int64_t>(k) * dim);
    }
    comm::codec_error_feedback(codec, grad.mutable_values().flat(), scratch_);
    for (size_t k = 0; k < ids.size(); ++k) {
      auto dst = residual_.row(ids[k]);
      std::copy(scratch_.begin() + static_cast<int64_t>(k) * dim,
                scratch_.begin() + static_cast<int64_t>(k + 1) * dim,
                dst.begin());
    }
  }

  const Tensor& residual() const { return residual_; }

 private:
  Tensor residual_;
  std::vector<float> scratch_;
};

}  // namespace embrace::core
