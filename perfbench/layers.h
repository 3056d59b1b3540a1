// Per-layer suites, each timed from outside through the layer's public
// functions: comm (fabric hop, α–β fit, collectives, buffer pool), sched
// (NegotiatedScheduler ops), tensor kernels, nn (head, optimizers), data
// (loader) and embrace (PartitionedEmbedding). Cluster suites spawn one
// persistent 4-rank cluster each and bracket every timed iteration with
// barriers, so no thread spawn is timed.
#pragma once

#include "harness.h"
#include "workloads.h"

namespace perfbench {

// Runs every suite at `w`'s geometry and link, records the comm.*, sched.*
// (except the per-strategy counts), tensor.*, nn.*, data.* and
// embrace.{lookup,exchange_grad}_us metrics, checks each layer's outputs,
// and returns the costs the step-time model multiplies by per-step counts.
LayerCosts run_layers(const Workload& w, Report& report);

}  // namespace perfbench
