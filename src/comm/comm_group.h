// The two-tier communicator tree (LBANN-style world → node → leaders).
//
// build_comm_group() derives, from the fabric's cluster topology, the two
// sub-communicators the topology-aware collectives run on:
//   * node    — the ranks sharing this rank's node (ordered by fabric rank,
//               so node rank 0 — the node "leader" — is the lowest fabric
//               rank on the node);
//   * leaders — the node leaders, one per node, ordered by node id (leader
//               group rank k is node k's leader). Engaged (non-nullopt)
//               only on leader ranks.
// Both come from Communicator::split(), so each carries its own fabric
// tag-space id and can interleave collectives with the world communicator
// on the same channel without tag collisions.
//
// On a fabric without a topology (or a single-node / one-rank-per-node
// one), two_level() is false and the hierarchical collectives fall back to
// the flat world path unchanged.
#pragma once

#include <optional>

#include "comm/communicator.h"

namespace embrace::comm {

struct CommGroup {
  // The spanning communicator the tree was built from. Not owned; the
  // hierarchical collectives use it for the flat fallback path, and callers
  // keep using it directly for non-hierarchical traffic.
  Communicator* world = nullptr;
  std::optional<Communicator> node;
  std::optional<Communicator> leaders;  // engaged only on node leaders
  int nodes = 1;
  int gpus_per_node = 1;

  bool two_level() const { return nodes > 1 && gpus_per_node > 1; }
};

// Builds the tree. Collective over `world` (every rank of the fabric must
// call it at the same point); `world` must be a root (fabric-spanning)
// communicator and must outlive the returned group.
CommGroup build_comm_group(Communicator& world);

}  // namespace embrace::comm
