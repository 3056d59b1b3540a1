#include "tensor/fusion.h"

#include "common/error.h"

namespace embrace {

FusionGroup::FusionGroup(std::vector<Tensor*> tensors)
    : tensors_(std::move(tensors)) {
  EMBRACE_CHECK(!tensors_.empty(), << "empty fusion group");
  for (const Tensor* t : tensors_) {
    EMBRACE_CHECK(t != nullptr);
    elems_ += t->numel();
    bytes_ += t->byte_size();
  }
}

std::vector<float> FusionGroup::flatten() const {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(elems_));
  for (const Tensor* t : tensors_) {
    out.insert(out.end(), t->flat().begin(), t->flat().end());
  }
  return out;
}

void FusionGroup::unflatten(const std::vector<float>& flat) {
  EMBRACE_CHECK_EQ(static_cast<int64_t>(flat.size()), elems_,
                   << "flat buffer size mismatch");
  size_t pos = 0;
  for (Tensor* t : tensors_) {
    auto dst = t->flat();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + dst.size()),
              dst.begin());
    pos += dst.size();
  }
}

}  // namespace embrace
