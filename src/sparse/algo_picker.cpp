#include "sparse/algo_picker.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simnet/topology.h"

namespace embrace::sparse {
namespace {

// Wire size of a sparse payload over a (rows × dim) space at `density`:
// header + indices (8B/row) + values (value_bytes per element — 4 raw,
// less under a wire codec; sparse_collectives.h keeps header and indices
// uncompressed).
double sparse_payload_bytes(double density, int64_t rows, int64_t dim,
                            double value_bytes) {
  const double nnz = density * static_cast<double>(rows);
  return 24.0 + nnz * (8.0 + value_bytes * static_cast<double>(dim));
}

double dense_payload_bytes(int64_t rows, int64_t dim) {
  return 4.0 * static_cast<double>(rows) * static_cast<double>(dim);
}

// Transfer time of `bytes` at efficiency-derated bandwidth; 0 bandwidth
// means an infinite (unmodeled) link, costing only latency.
double wire_us(const comm::LinkCost& link, double bytes, double efficiency) {
  if (link.bytes_per_us <= 0.0) return 0.0;
  return bytes / (link.bytes_per_us * efficiency);
}

obs::Counter& picks_counter(comm::SparseAlgoKind k) {
  switch (k) {
    case comm::SparseAlgoKind::kSplitAllgather: {
      static obs::Counter& c = obs::counter("sparse.algo.picks{algo=allgather}");
      return c;
    }
    case comm::SparseAlgoKind::kRecursiveDoubling: {
      static obs::Counter& c =
          obs::counter("sparse.algo.picks{algo=recursive-doubling}");
      return c;
    }
    case comm::SparseAlgoKind::kTwoLevelRing: {
      static obs::Counter& c =
          obs::counter("sparse.algo.picks{algo=two-level}");
      return c;
    }
    case comm::SparseAlgoKind::kDenseRing:
    default: {
      static obs::Counter& c = obs::counter("sparse.algo.picks{algo=dense}");
      return c;
    }
  }
}

obs::Counter& bytes_counter(comm::SparseAlgoKind k) {
  switch (k) {
    case comm::SparseAlgoKind::kSplitAllgather: {
      static obs::Counter& c = obs::counter("sparse.algo.bytes{algo=allgather}");
      return c;
    }
    case comm::SparseAlgoKind::kRecursiveDoubling: {
      static obs::Counter& c =
          obs::counter("sparse.algo.bytes{algo=recursive-doubling}");
      return c;
    }
    case comm::SparseAlgoKind::kTwoLevelRing: {
      static obs::Counter& c =
          obs::counter("sparse.algo.bytes{algo=two-level}");
      return c;
    }
    case comm::SparseAlgoKind::kDenseRing:
    default: {
      static obs::Counter& c = obs::counter("sparse.algo.bytes{algo=dense}");
      return c;
    }
  }
}

// Union density of k independent draws at density d: 1 − (1−d)^k.
// Clamped because the float pow can land an ulp outside [0, 1] at the
// extremes (d → 1⁻ or huge k), and a negative density would flow into
// sparse_payload_bytes as a negative byte count. k is a double so callers
// can pass 2^r for r up to the 1024-rank world's log₂ without relying on
// `1 << r` integer widening.
double merged_density(double d, double k) {
  return std::clamp(1.0 - std::pow(1.0 - d, k), 0.0, 1.0);
}

}  // namespace

CostParams CostParams::from_simnet_defaults() {
  const simnet::NetworkParams net;  // single source of truth with the sim
  CostParams p;
  p.link.alpha_us = net.latency * 1e6;
  p.link.bytes_per_us = net.inter_node_bw / 1e6;
  p.intra.alpha_us = net.intra_node_latency * 1e6;
  p.intra.bytes_per_us = net.intra_node_bw / 1e6;
  return p;
}

DensityEstimate DensityEstimate::independent(double per_rank, int world) {
  DensityEstimate est;
  est.per_rank = std::clamp(per_rank, 0.0, 1.0);
  est.merged = merged_density(est.per_rank, static_cast<double>(world));
  return est;
}

DensityEstimate DensityEstimate::from_allreduced(double sum_density,
                                                 double sum_log1m,
                                                 int world) {
  EMBRACE_CHECK_GE(world, 1);
  DensityEstimate est;
  est.per_rank =
      std::clamp(sum_density / static_cast<double>(world), 0.0, 1.0);
  // exp(Σ log(1−d_r)) is the exact miss probability when rows are drawn
  // independently *per the actual density distribution* — unlike raising
  // the mean to the world'th power, it is not fooled by skew (one d_r = 0.9
  // rank among near-zero ranks yields a union ≥ 0.9, where the mean-based
  // form predicts far less). A d_r = 1 rank contributes −inf and exp gives
  // a union of exactly 1. The clamp enforces the overlap-free bounds that
  // hold for ANY correlation structure: union ∈ [max d_r ≥ d̄, min(1, Σd_r)].
  const double independent_union = 1.0 - std::exp(sum_log1m);
  est.merged = std::clamp(independent_union, est.per_rank,
                          std::min(1.0, std::max(sum_density, 0.0)));
  return est;
}

AlgoPicker::AlgoPicker(CostParams params, int64_t chunk_bytes)
    : params_(params), chunk_bytes_(chunk_bytes) {}

void AlgoPicker::set_codec_cost(double wire_bytes_per_value) {
  EMBRACE_CHECK_GT(wire_bytes_per_value, 0.0);
  value_bytes_ = wire_bytes_per_value;
}

double AlgoPicker::predict_us(comm::SparseAlgoKind algo, double density,
                              int64_t rows, int64_t dim, int world) const {
  return predict_us(algo, DensityEstimate::independent(density, world), rows,
                    dim, world);
}

double AlgoPicker::predict_us(comm::SparseAlgoKind algo,
                              const DensityEstimate& est, int64_t rows,
                              int64_t dim, int world) const {
  EMBRACE_CHECK_GE(world, 1);
  const double density = std::clamp(est.per_rank, 0.0, 1.0);
  const double merged_full = std::clamp(est.merged, density, 1.0);
  if (world == 1) return 0.0;
  const comm::LinkCost& link = params_.link;
  const double n = static_cast<double>(world);
  const double vb = value_bytes();
  switch (algo) {
    case comm::SparseAlgoKind::kSplitAllgather: {
      // Each rank ships its whole payload to every peer in one round: the
      // N−1 sends share one α while their bytes serialize on the sender's
      // egress, α + (N−1)·S/B. Per-rank payload sizes add linearly, so the
      // *mean* per-rank density prices the total volume exactly regardless
      // of overlap structure.
      const double s = sparse_payload_bytes(density, rows, dim, vb);
      return link.alpha_us +
             (n - 1.0) * wire_us(link, s, params_.allgather_eff);
    }
    case comm::SparseAlgoKind::kRecursiveDoubling: {
      // Round r exchanges the merge of 2^r ranks' rows. Its density is
      // bracketed by the independent-rows union of the per-rank mean from
      // below and the measured final union from above, with the in-between
      // rounds ramped as 1 − (1−merged)^(2^r/p) — calibrated to land on
      // the measured union at the last round, and reducing exactly to the
      // old 1 − (1−d)^(2^r) form when the estimate itself is the
      // independence one. Non-power-of-two worlds add a fold-in leg (one
      // per-rank payload) and a return leg (the full merged result) on the
      // critical path.
      const int p = std::bit_floor(static_cast<unsigned>(world));
      const int rounds = std::countr_zero(static_cast<unsigned>(p));
      double t = 0.0;
      for (int r = 0; r < rounds; ++r) {
        // 2^r via ldexp: round counts reach 10 at 1024 ranks and the shift
        // form `1 << r` is one refactor away from widening UB.
        const double k = std::ldexp(1.0, r);
        const double ramp =
            1.0 - std::pow(1.0 - merged_full, k / static_cast<double>(p));
        const double round_density = std::min(
            merged_full, std::max(merged_density(density, k), ramp));
        t += link.alpha_us +
             wire_us(link, sparse_payload_bytes(round_density, rows, dim, vb),
                     params_.alltoall_eff);
      }
      if (p < world) {
        t += 2.0 * link.alpha_us +
             wire_us(link, sparse_payload_bytes(density, rows, dim, vb),
                     params_.alltoall_eff) +
             wire_us(link, sparse_payload_bytes(merged_full, rows, dim, vb),
                     params_.alltoall_eff);
      }
      return t;
    }
    case comm::SparseAlgoKind::kDenseRing: {
      // 2(N−1) ring steps of M/N, each split into ceil(block/chunk)
      // messages that pay α individually. The runtime encodes every ring
      // slice under the active codec, so the block size scales with the
      // codec's bytes/value.
      const double block =
          dense_payload_bytes(rows, dim) * (vb / 4.0) / n;
      const double msgs =
          chunk_bytes_ > 0
              ? std::max(1.0,
                         std::ceil(block / static_cast<double>(chunk_bytes_)))
              : 1.0;
      return 2.0 * (n - 1.0) *
             (msgs * link.alpha_us +
              wire_us(link, block, params_.allreduce_eff));
    }
    case comm::SparseAlgoKind::kTwoLevelRing: {
      // Two-tier pricing of comm::hierarchical_allreduce, stage for stage
      // (mirrors simnet::CollectiveCostModel::allreduce_two_level). With no
      // node structure the runtime falls back to the flat dense ring, so
      // price it identically. Only the inter-node leader stage is encoded
      // (hierarchical_collectives.h keeps the intra stages exact), so only
      // its term scales with the codec's bytes/value.
      const int nodes = params_.nodes;
      const int g = params_.gpus_per_node;
      if (nodes <= 1 || g <= 1) {
        return predict_us(comm::SparseAlgoKind::kDenseRing, est, rows, dim,
                          world);
      }
      const comm::LinkCost& intra = params_.intra;
      const double m = dense_payload_bytes(rows, dim);
      const double chunk = m / static_cast<double>(g);
      // Intra-node reduce-scatter + chunk gather to the leader.
      double t = 2.0 * (g - 1) *
                 (intra.alpha_us + wire_us(intra, chunk, params_.allreduce_eff));
      // Inter-node ring AllReduce of the full vector across the leaders
      // (the codec-compressed stage).
      t += 2.0 * (nodes - 1) *
           (link.alpha_us +
            wire_us(link, m * (vb / 4.0) / static_cast<double>(nodes),
                    params_.allreduce_eff));
      // Intra-node binomial broadcast of the finished vector.
      const double bcast_rounds =
          std::ceil(std::log2(static_cast<double>(g)));
      t += bcast_rounds *
           (intra.alpha_us + wire_us(intra, m, params_.allreduce_eff));
      return t;
    }
  }
  return 0.0;
}

double AlgoPicker::predict_hot_split_us(int64_t hot_rows,
                                        double hot_access_frac,
                                        double tokens_per_step, int64_t dim,
                                        int world, int sync_every) const {
  // Single rank: every path is local, all cuts price alike (the caller's
  // ascending-grid tie-break then keeps the cache off, which is right —
  // there is no wire to save).
  if (world <= 1) return 0.0;
  const double vb = value_bytes();
  const double beta = params_.link.bytes_per_us;  // 0 = infinite bandwidth
  const double peer_frac = static_cast<double>(world - 1) / world;
  // Cold AlltoAll, both legs per step, one round (one α) each: the lookup
  // ships exact fp32 row slices, the gradient leg ships codec-priced values
  // plus 8-byte indices; a rank's own slice never leaves the box.
  const double cold_tokens =
      tokens_per_step * (1.0 - hot_access_frac) / world;  // per rank
  const double a2a_bytes =
      cold_tokens * peer_frac *
      (static_cast<double>(dim) * 4.0 + static_cast<double>(dim) * vb + 8.0);
  double t = 2.0 * params_.link.alpha_us;
  if (beta > 0.0) t += a2a_bytes / (beta * params_.alltoall_eff);
  // Hot sync: a dense ring AllReduce over (hot_rows × dim) codec-priced
  // values plus exact presence floats, amortized over the staleness
  // window. Its α term is what makes small cuts lose on latency-bound
  // links — an extra collective must earn its startup cost.
  if (hot_rows > 0) {
    const double ar_bytes =
        2.0 * peer_frac * static_cast<double>(hot_rows) *
        (static_cast<double>(dim) * vb + 4.0);
    double sync_us = 2.0 * params_.link.alpha_us * (world - 1);
    if (beta > 0.0) sync_us += ar_bytes / (beta * params_.allreduce_eff);
    t += sync_us / static_cast<double>(sync_every < 1 ? 1 : sync_every);
  }
  return t;
}

double AlgoPicker::crossover_density(int64_t rows, int64_t dim,
                                     int world) const {
  // Equate α + (N−1)·dR(8+vD)/(β·ag) with 2(N−1)(α + vRD/(N·β·ar)),
  // dropping the constant header (v = value_bytes; both paths encode their
  // value sections, so v appears on both sides). With no bandwidth model
  // (β = 0) both sides are pure latency and the dense ring (2(N−1) rounds
  // to the allgather's one) never wins: the sparse format is free at any
  // density.
  if (world <= 1 || rows <= 0 || dim <= 0) return 1.0;
  const double beta = params_.link.bytes_per_us;
  if (beta <= 0.0) return 1.0;
  const double r = static_cast<double>(rows);
  const double d = static_cast<double>(dim);
  const double n = static_cast<double>(world);
  const double ag = params_.allgather_eff;
  const double ar = params_.allreduce_eff;
  const double vb = value_bytes();
  const double crossover =
      ((2.0 * n - 3.0) / (n - 1.0) * params_.link.alpha_us * beta * ag +
       2.0 * vb * r * d * ag / (n * ar)) /
      (r * (8.0 + vb * d));
  return std::clamp(crossover, 0.0, 1.0);
}

AlgoChoice AlgoPicker::choose(double density, int64_t rows, int64_t dim,
                              int world) const {
  return choose(DensityEstimate::independent(density, world), rows, dim,
                world);
}

AlgoChoice AlgoPicker::choose(const DensityEstimate& est, int64_t rows,
                              int64_t dim, int world) const {
  AlgoChoice choice;
  choice.chunk_bytes = chunk_bytes_;
  // Fixed candidate order makes ties deterministic (and rank-agreed).
  // Two-level only competes when the params describe a real two-tier
  // layout — every rank derives nodes/gpus_per_node from the shared
  // config, so the candidate set itself is rank-agreed too.
  constexpr comm::SparseAlgoKind kCandidates[] = {
      comm::SparseAlgoKind::kSplitAllgather,
      comm::SparseAlgoKind::kRecursiveDoubling,
      comm::SparseAlgoKind::kDenseRing,
      comm::SparseAlgoKind::kTwoLevelRing,
  };
  const bool two_tier = params_.nodes > 1 && params_.gpus_per_node > 1;
  double best = -1.0;
  for (comm::SparseAlgoKind k : kCandidates) {
    if (k == comm::SparseAlgoKind::kTwoLevelRing && !two_tier) continue;
    const double cost = predict_us(k, est, rows, dim, world);
    if (best < 0.0 || cost < best) {
      best = cost;
      choice.algo = k;
    }
  }
  choice.predicted_us = best;
  return choice;
}

void AlgoPicker::record(const AlgoChoice& choice, int64_t wire_bytes) {
  picks_counter(choice.algo).increment();
  bytes_counter(choice.algo).add(wire_bytes);
  obs::emit_instant("sparse.algo_pick", "algo",
                    static_cast<int64_t>(choice.algo), "bytes", wire_bytes);
}

}  // namespace embrace::sparse
