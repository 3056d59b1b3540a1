// Tensor fusion: grouping many small tensors into one flat buffer so a
// single collective carries them (Horovod's fusion buffer; also PACE's
// "tensor fusion for better bandwidth usage", paper §6).
//
// The trainer fuses every dense head gradient, in BP-emission order, into
// one group per run. flatten() concatenates the group's current values;
// unflatten() writes a modified flat buffer back.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace embrace {

// One fused group of tensors (non-owning).
class FusionGroup {
 public:
  explicit FusionGroup(std::vector<Tensor*> tensors);

  int64_t byte_size() const { return bytes_; }

  // Concatenation of all member tensors' contents.
  std::vector<float> flatten() const;
  // Writes `flat` (must have exactly the group's element count) back into
  // the member tensors.
  void unflatten(const std::vector<float>& flat);

 private:
  std::vector<Tensor*> tensors_;
  int64_t elems_ = 0;
  int64_t bytes_ = 0;
};

}  // namespace embrace
