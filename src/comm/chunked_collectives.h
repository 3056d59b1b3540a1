// Chunked ring AllReduce: the monolithic ring's algorithm with its wire
// messages split into <= chunk_bytes slices (DESIGN.md §10).
//
// The monolithic ring AllReduce (Communicator::allreduce) runs 2(N-1)
// steps, each sending one whole block and receive-reducing another. Here
// each step's blocks are sliced into <= chunk_bytes pieces (ChunkPlan): a
// step first enqueues *all* of its slice sends (fabric sends are async),
// then receive-reduces (reduce-scatter phase) or receive-copies (allgather
// phase) the incoming slices in order — so the wire carries small messages
// the peer starts consuming immediately (pipelining). The call runs whole;
// chunking changes the wire, not the scheduling.
//
// Invariants (tested):
//  * Bitwise reproducibility. The block partition (chunk_range over the
//    full span) and the per-element reduce order are exactly the monolithic
//    ring's; only the wire messages are split. Results are bitwise-equal to
//    Communicator::allreduce for every chunk size.
//  * Rank-invariant tags. Block sizes differ by at most one element across
//    ranks, so per-step slice counts could differ; the tag of slice j of
//    step s is base + s·Kmax + j, with Kmax the slice count of the largest
//    block, and the whole range is reserved up front
//    (Communicator::reserve_tags), identically on every rank.
#pragma once

#include <cstdint>
#include <span>

#include "comm/codec.h"
#include "comm/communicator.h"

namespace embrace::comm {

// In-place ring AllReduce with <= chunk_bytes wire slices (chunk_bytes <= 0:
// one slice per ring step). `data` must have equal size on all ranks.
// Bitwise-equal to Communicator::allreduce when codec is null (or
// lossless).
//
// With a non-null `codec` every wire slice travels codec-encoded (and is
// decoded + reduced on arrival); all ranks must pass an equivalent codec
// (same kind and parameters). A null codec keeps the raw float-block fast
// path. Lossy codecs quantize each hop's partial sums, so the result is
// approximate; pair them with error feedback (comm/codec.h).
void allreduce_chunked(Communicator& comm, std::span<float> data,
                       int64_t chunk_bytes, ReduceOp op = ReduceOp::kSum,
                       const Codec* codec = nullptr);

}  // namespace embrace::comm
