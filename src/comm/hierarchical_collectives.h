// Two-level, topology-aware AllReduce over a CommGroup tree.
//
// The flat ring treats all N-1 hops alike, so at scale its 2(N-1) α terms
// are all priced at the (expensive) inter-node start latency. The two-level
// algorithm confines the inter-node tier to one participant per node:
// intra-node ring reduce-scatter, chunk gather to the node leader
// (reduce-scatter + gather = reduce at ring bandwidth), inter-node
// AllReduce across the leaders (the ring, or the one-shot where its α–β
// pick prices that cheaper), intra-node binomial broadcast. On the ring,
// inter-node α cost drops from 2(N-1) to 2(nodes-1) messages per rank.
//
// Equivalence to the flat path: the two levels change the summation
// bracketing, so float results are bitwise-equal to the flat ring only on
// exact-arithmetic data (e.g. small-integer-valued floats — what the oracle
// tests use) and within float tolerance otherwise; the final intra-node
// broadcast guarantees all ranks agree bitwise with each other in every
// case. It falls back to the flat world path when the group is not
// two-level.
//
// There is no two-level AlltoAllv: the fabric charges α once per round at
// the receiver, so the flat Communicator::alltoallv is one round, while a
// node/leader/scatter relay would be three dependent rounds funnelled
// through each leader's egress.
#pragma once

#include <cstdint>
#include <span>

#include "comm/codec.h"
#include "comm/comm_group.h"

namespace embrace::comm {

// In-place two-level AllReduce. Collective over g.world's ranks.
//
// A non-null `codec` compresses the wire of the *inter-node leader stage*
// only (and of the flat fallback): that is the expensive tier the two-level
// schedule exists to protect, while the intra-node reduce/broadcast stages
// stay exact so a node's ranks agree bitwise by construction. Every rank
// must pass an equivalent codec; lossy codecs make the result approximate
// (pair with error feedback, comm/codec.h). `chunk_bytes` sizes the wire
// slices of the leader stage and of the flat fallback, codec or not (<= 0:
// one slice per ring step); the intra-node stages keep whole-block wire.
void hierarchical_allreduce(CommGroup& g, std::span<float> data,
                            ReduceOp op = ReduceOp::kSum,
                            const Codec* codec = nullptr,
                            int64_t chunk_bytes = 0);

}  // namespace embrace::comm
