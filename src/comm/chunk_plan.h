// Chunk arithmetic for chunk-granular communication (DESIGN.md §10).
//
// ChunkPlan slices a contiguous element range into fixed-byte chunks (the
// wire messages of the chunked ring AllReduce). It is pure arithmetic:
// every rank computing a plan over the same inputs gets the same answer,
// which the chunked collectives rely on for tag alignment.
#pragma once

#include <cstdint>
#include <utility>

namespace embrace::comm {

// Byte-bounded slicing of `elems` contiguous elements. Always yields at
// least one chunk (a single empty chunk for elems == 0), so a chunked
// protocol exchanges at least one message per block and sender/receiver
// slice counts can never diverge.
struct ChunkPlan {
  int64_t elems = 0;
  int64_t chunk_elems = 1;  // elements per chunk (the last may be shorter)

  // chunk_bytes <= 0 means "unbounded": one chunk covers everything.
  // 0 < chunk_bytes < elem_bytes degrades to 1-element chunks (never zero:
  // a zero-element chunk would make num_chunks unbounded and stall the
  // pipelined ring), so chunks may exceed the byte budget by up to one
  // element — the budget bounds slicing granularity, not message size.
  static ChunkPlan over(int64_t elems, int64_t chunk_bytes,
                        int64_t elem_bytes = 4);

  int64_t num_chunks() const {
    if (elems <= 0) return 1;
    return (elems + chunk_elems - 1) / chunk_elems;
  }

  // Element range [begin, end) of chunk i; [0, 0) for the empty plan.
  std::pair<int64_t, int64_t> chunk(int64_t i) const {
    const int64_t begin = i * chunk_elems;
    const int64_t end = begin + chunk_elems;
    return {begin < elems ? begin : elems, end < elems ? end : elems};
  }
};

}  // namespace embrace::comm
