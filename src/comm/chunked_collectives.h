// The dense AllReduce (DESIGN.md §10). Its two routes are the ring, with
// its wire messages split into <= chunk_bytes slices, and the one-shot: an
// allgather of the whole buffer plus a local sum in rank order 0..N-1.
// allreduce_walk picks between them (pick_dense_allreduce, fabric.h) and
// serves both allreduce_chunked and Communicator::allreduce; the ring is
// the only ring in src/comm, and Communicator::reduce_scatter is its reduce
// half. The pick ignores chunk_bytes, and a non-null codec keeps the ring,
// whose owner-block projection (below) the one-shot lacks.
//
// The one-shot costs one round: every rank posts its N-1 sends before any
// receive, then sums the received buffers in place, straight from the
// shared receive views. Every rank adds the same N buffers in the same
// order, so the ranks end bitwise identical.
//
// The ring runs 2(N-1) steps, each sending one block and receive-reducing
// (reduce-scatter half) or receive-copying (allgather half) another. Each
// step's blocks are sliced into <= chunk_bytes pieces (ChunkPlan): a step
// first enqueues *all* of its slice sends (fabric sends are async), then
// receives the incoming slices in order — so the wire carries small
// messages the peer starts consuming immediately (pipelining). At
// chunk_bytes <= 0 every step is one message per block, an empty block
// included. The call runs whole; chunking changes the wire, not the
// scheduling.
//
// Ring invariants (tested):
//  * Bitwise reproducibility. The block partition (chunk_range over the
//    full span) and the per-element reduce order do not depend on the
//    chunk size; only the wire messages are split. Results are
//    bitwise-equal for every chunk size.
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

// In-place AllReduce (allreduce_walk) with <= chunk_bytes wire slices on
// the ring (chunk_bytes <= 0: one slice per ring step). `data` must have
// equal size on all ranks. Bitwise-equal to Communicator::allreduce when
// codec is null (or lossless).
//
// With a non-null `codec` every wire slice travels codec-encoded (and is
// decoded + reduced on arrival); all ranks must pass an equivalent codec
// (same kind and parameters). A null codec keeps the raw float-block fast
// path. Lossy codecs quantize each hop's partial sums, so the result is
// approximate; pair them with error feedback (comm/codec.h).
void allreduce_chunked(Communicator& comm, std::span<float> data,
                       int64_t chunk_bytes, ReduceOp op = ReduceOp::kSum,
                       const Codec* codec = nullptr);

// The uninstrumented pick behind allreduce_chunked and
// Communicator::allreduce: runs one_shot_walk when there is no codec and
// pick_dense_allreduce prices it below the ring on comm.worst_link(),
// ring_walk otherwise, and counts the route in
// comm.allreduce_algo{algo=one_shot|ring}. It opens no span, so each public
// entry traces and counts its own call once.
void allreduce_walk(Communicator& comm, std::span<float> data,
                    int64_t chunk_bytes, ReduceOp op, const Codec* codec);

// The one-shot route: the uninstrumented allgatherv_shared body, then an
// in-place sum in rank order 0..N-1 from the shared receive views.
void one_shot_walk(Communicator& comm, std::span<float> data, ReduceOp op);

// The ring route, also behind Communicator::reduce_scatter; it opens no
// span and counts nothing. With `gather` false it stops after the
// reduce-scatter half, when rank r holds the reduction of block
// chunk_range(total, r), and reserves only that half's tags.
void ring_walk(Communicator& comm, std::span<float> data, int64_t chunk_bytes,
               ReduceOp op, const Codec* codec, bool gather);

}  // namespace embrace::comm
