#include "comm/chunk_plan.h"

#include <algorithm>

#include "common/error.h"

namespace embrace::comm {

ChunkPlan ChunkPlan::over(int64_t elems, int64_t chunk_bytes,
                          int64_t elem_bytes) {
  EMBRACE_CHECK_GE(elems, 0);
  EMBRACE_CHECK_GE(elem_bytes, 1);
  ChunkPlan plan;
  plan.elems = elems;
  if (chunk_bytes <= 0) {
    plan.chunk_elems = std::max<int64_t>(1, elems);
  } else {
    plan.chunk_elems = std::max<int64_t>(1, chunk_bytes / elem_bytes);
  }
  return plan;
}

}  // namespace embrace::comm
