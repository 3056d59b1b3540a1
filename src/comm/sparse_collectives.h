// Collective operations over SparseRows payloads.
//
// These wrap the byte-level collectives with the pack/unpack discipline the
// paper's sparse paths need:
//  * sparse_allgather — Horovod-0.22-style sparse gradient aggregation
//    (each rank contributes its local sparse gradient; every rank receives
//    the sum of all of them, still in sparse form).
//  * sparse_allreduce — the SparCML-style algorithm variants of the same
//    sum, picked by the AlgoPicker.
#pragma once

#include <span>
#include <vector>

#include "comm/codec.h"
#include "comm/communicator.h"
#include "tensor/sparse_rows.h"

namespace embrace::comm {

// Wire codec contract shared by every collective below: a non-null `codec`
// compresses each payload's *values section* (header and row indices stay
// raw, so peers can size and validate payloads without negotiation); every
// rank must pass an equivalent codec, and algorithms that re-ship merged
// partial sums (recursive doubling, dense ring) re-encode per hop, so lossy
// codecs quantize at every hop — pair them with error feedback
// (comm/codec.h). A null codec keeps today's wire byte-for-byte.

// Serializes `rows` into the wire format the collectives below ship —
// SparseRows::pack_into when `codec` is null, else the encoded layout
// (raw header + raw indices + codec-encoded values section) — and its
// inverse. Exposed so other sparse exchanges (the hybrid path's
// column-slice AlltoAll in PartitionedEmbedding::exchange_grad) speak the
// same format. The returned buffer comes from comm's pool.
Bytes sparse_pack_wire(Communicator& comm, const SparseRows& rows,
                       const Codec* codec = nullptr);
SparseRows sparse_unpack_wire(std::span<const std::byte> buf,
                              const Codec* codec = nullptr);
// The same format into caller-owned memory: `dst` must be exactly
// sparse_wire_bytes(rows, codec) long. Lets one message carry several
// payloads back to back (split_sparse_wire is the inverse).
size_t sparse_wire_bytes(const SparseRows& rows, const Codec* codec = nullptr);
void sparse_pack_wire_into(const SparseRows& rows, const Codec* codec,
                           std::span<std::byte> dst);

// Concatenated sections: one AlltoAll payload that carries several tables'
// sections back to back with no framing, because the receiver can size
// every section on its own. split_sections cuts `buf` into sections of the
// known `sizes`; split_sparse_wire cuts it into one sparse wire payload per
// entry of `codecs` (section i encoded with codecs[i]), each sized from its
// raw header plus Codec::encoded_bytes. Both throw WireFormatError when
// `buf` is shorter or longer than its sections. The returned spans alias
// `buf`.
std::vector<std::span<const std::byte>> split_sections(
    std::span<const std::byte> buf, std::span<const size_t> sizes);
std::vector<std::span<const std::byte>> split_sparse_wire(
    std::span<const std::byte> buf, std::span<const Codec* const> codecs);

// Gathers every rank's sparse rows and returns their (uncoalesced)
// concatenation in rank order. Logically equals the elementwise sum of all
// contributions over the shared row space. With a lossy codec every rank
// decodes all payloads — its own included — from wire form, so all ranks
// still agree bitwise on the result.
SparseRows sparse_allgather(Communicator& comm, const SparseRows& mine,
                            const Codec* codec = nullptr);

// Algorithm variants for the sparse AllReduce (SparCML-style selection:
// DESIGN.md §12). All three return a SparseRows whose dense meaning is the
// elementwise sum of every rank's contribution; they differ in wire format
// and message pattern, so their α–β costs cross over with density.
enum class SparseAlgoKind {
  // The allgather path above: each rank ships its whole payload to every
  // peer, (N−1)·(α + S/B). Cheapest at low density; result is the
  // uncoalesced rank-order concatenation (bitwise equal to sparse_allgather).
  kSplitAllgather,
  // Recursive doubling: log₂(N) pairwise exchange rounds, merging payloads
  // pairwise (coalesced each round, canonical lower-rank-first order, so
  // every rank holds a bitwise-identical coalesced result). Non-power-of-two
  // worlds fold the extra ranks into [0, 2^⌊log₂N⌋) first and ship the
  // result back after the exchange. Wins at mid densities on latency-bound
  // fabrics: each payload crosses the wire O(log N) times, not N−1.
  kRecursiveDoubling,
  // Dense fallback: materialize to_dense(), ride the chunked ring AllReduce
  // (bitwise equal to Communicator::allreduce), return the nonzero rows.
  // Wins past the α–β crossover density where index overhead and the
  // (N−1)·S allgather volume exceed the ring's 2(N−1)·M/N. Result is
  // coalesced by construction.
  kDenseRing,
  // Topology-aware dense path: materialize to_dense(), ride the two-level
  // hierarchical AllReduce over a CommGroup tree (hierarchical_collectives.h)
  // instead of the flat ring. Wins on two-tier clusters where the
  // inter-node α dominates: 2(nodes−1) expensive-tier messages instead of
  // 2(N−1). Requires the CommGroup overload of sparse_allreduce; without a
  // group it degrades to kDenseRing.
  kTwoLevelRing,
};

// Stable lowercase name
// ("allgather" | "recursive-doubling" | "dense" | "two-level").
const char* sparse_algo_name(SparseAlgoKind k);

// AllReduce of `mine` over the shared row space with the chosen algorithm.
// SPMD contract: every rank must pass the same `algo` and `chunk_bytes`
// (the algorithms have different wire schedules — a split-brain choice
// deadlocks, which is why the AlgoPicker decides from rank-agreed inputs).
// `chunk_bytes` only affects kDenseRing (see allreduce_chunked; <= 0 means
// one slice per ring step).
SparseRows sparse_allreduce(Communicator& comm, const SparseRows& mine,
                            SparseAlgoKind algo, int64_t chunk_bytes = 0,
                            const Codec* codec = nullptr);

// Group-tree overload: kTwoLevelRing rides the hierarchical AllReduce over
// `group`; every other algorithm runs on *group.world exactly as above.
struct CommGroup;
SparseRows sparse_allreduce(CommGroup& group, const SparseRows& mine,
                            SparseAlgoKind algo, int64_t chunk_bytes = 0,
                            const Codec* codec = nullptr);

}  // namespace embrace::comm
