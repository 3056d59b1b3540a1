// Adaptive sparse-collective algorithm selection (DESIGN.md §12).
//
// SparCML's observation (PAPERS.md): no single representation/algorithm
// wins at every density. At low gradient density the sparse allgather's
// (N−1)·S(d) volume is tiny; past the α–β crossover the COO index overhead
// and the full-payload fan-out lose to the ring AllReduce's bandwidth-
// optimal 2(N−1)·M/N dense schedule, with recursive doubling's log₂(N)
// rounds competitive in between on latency-bound fabrics. The AlgoPicker
// prices all variants of comm::sparse_allreduce under the α–β model and
// picks the cheapest.
//
// Inputs are deliberately rank-agreeable: density, row-space geometry, and
// world size are scalars every rank can compute identically (the trainer
// allreduces the nnz count first), and the CostParams are a pure function
// of the shared run config — so every rank makes the same pick and the
// SPMD collective contract holds (a split-brain algorithm choice deadlocks
// the fabric).
//
// Cost constants start from the simnet cost model's NetworkParams defaults
// — one source of truth with the simulator, which is what makes the
// predicted crossover comparable to simnet's measured one (bench_algo_picker
// gates on a factor of 2) — and the trainer overrides them with its
// configured link (core::cost_params).
#pragma once

#include <cstdint>

#include "comm/fabric.h"
#include "comm/sparse_collectives.h"

namespace embrace::sparse {

// α–β link cost plus per-scheme bandwidth-efficiency factors. The
// efficiencies mirror simnet::SchemeEfficiency (ring AllReduce pipelines
// near line rate; pairwise exchange and the variable-size gather do not) —
// duplicated numerically here because the picker prices *this runtime's*
// wire patterns, but kept equal so predicted and simulated crossovers
// agree (checked by bench_algo_picker's factor-of-2 gate).
struct CostParams {
  comm::LinkCost link;           // inter-node tier: alpha_us + bytes_per_us
                                 // (0 bytes_per_us = infinite bw)
  // Intra-node tier α–β plus the node layout; only consulted by the
  // kTwoLevelRing prediction. nodes == 1 (or gpus_per_node == 1) means "no
  // two-tier structure", which removes two-level from the kAuto candidate
  // set entirely (its prediction would collapse to the flat ring's anyway).
  comm::LinkCost intra;
  int nodes = 1;
  int gpus_per_node = 1;
  double allgather_eff = 0.40;   // simnet SchemeEfficiency::allgather
  double allreduce_eff = 0.90;   // simnet SchemeEfficiency::allreduce
  double alltoall_eff = 0.62;    // simnet SchemeEfficiency::alltoall

  // Constants from simnet's NetworkParams{} (100 Gbps inter-node link at
  // α = 30µs, PCIe-class intra-node link at α = 3µs). The node layout stays
  // 1×1; callers with a real topology fill nodes/gpus_per_node themselves.
  static CostParams from_simnet_defaults();
};

// Two-moment density estimate for one sparse op: the mean per-rank
// distinct-row density (what each rank's own payload costs on the wire)
// and the union density of the post-reduce result (what the merged
// payloads of recursive doubling's later rounds — and the allgather's
// coalesced output — actually occupy).
//
// The old single-density interface conflated the two: it fed the mean
// per-rank density everywhere and re-derived the union under an
// independent-rows assumption, 1 − (1−d̄)^k. That is exact for uniform
// random hot sets but wrong in both tails — for N disjoint hot sets the
// true union approaches min(1, N·d̄) (up to workers× denser than the
// independence estimate), and for fully overlapping hot sets it stays at
// d̄ (the independence estimate overshoots) — so the dense-ring/two-level
// crossover was mispredicted by up to workers×. Carrying the measured
// union fixes the estimator without changing the wire protocols.
//
// Both moments are rank-agreeable from one float AllReduce: each rank
// contributes (d_r, log1p(−d_r)) and every rank derives the same estimate
// via from_allreduced (Σ log(1−d_r) is the exact union under independence
// *of the actual per-rank densities*, not of their mean, and the result
// is clamped into the [max d̄, min(1, Σd_r)] envelope that holds for any
// overlap structure).
struct DensityEstimate {
  double per_rank = 0.0;  // mean per-rank distinct-row density
  double merged = 0.0;    // union density of the post-reduce result
  // Legacy independence assumption: merged = 1 − (1−per_rank)^world.
  // The single-density predict_us/choose overloads delegate through this,
  // so their behavior is unchanged.
  static DensityEstimate independent(double per_rank, int world);
  // From the rank-summed moments: `sum_density` = Σ d_r and `sum_log1m` =
  // Σ log1p(−d_r) over all `world` ranks (a rank with d_r = 1 contributes
  // −inf, which flows through exp() to a union of exactly 1).
  static DensityEstimate from_allreduced(double sum_density,
                                         double sum_log1m, int world);
};

// One decision: which wire variant, its chunking, and the predicted cost.
struct AlgoChoice {
  comm::SparseAlgoKind algo = comm::SparseAlgoKind::kSplitAllgather;
  int64_t chunk_bytes = 0;   // forwarded to sparse_allreduce (dense ring)
  double predicted_us = 0.0; // α–β prediction for the chosen variant
};

class AlgoPicker {
 public:
  // `chunk_bytes` is the dense ring's chunk granularity (<= 0 = one slice
  // per ring step); it feeds both the dense cost prediction and the choice.
  explicit AlgoPicker(CostParams params, int64_t chunk_bytes = 0);

  const CostParams& params() const { return params_; }

  // Predicted one-op wall cost in µs for a gradient over a (rows × dim)
  // row space on a `world`-rank fabric. Pure functions of their arguments
  // plus the picker's codec-cost state — identical on every rank as long
  // as set_codec_cost is fed rank-agreed values.
  // Per-rank payloads (allgather legs, recursive doubling's first round)
  // are priced at est.per_rank; merged payloads ramp from per_rank toward
  // est.merged round by round.
  double predict_us(comm::SparseAlgoKind algo, const DensityEstimate& est,
                    int64_t rows, int64_t dim, int world) const;
  // Single-density convenience: delegates through
  // DensityEstimate::independent (the legacy behavior, bit for bit).
  double predict_us(comm::SparseAlgoKind algo, double density, int64_t rows,
                    int64_t dim, int world) const;

  // Closed-form density where split-allgather (one round) and the dense
  // ring (2(N−1) rounds) predict equal cost (monolithic transfers), clamped
  // to [0, 1]. With v = value_bytes() (4 when no codec is active):
  //   d* = ((2N−3)/(N−1)·α·β·ag_eff + 2v·R·D·ag_eff / (N·ar_eff))
  //        / (R·(8 + v·D))
  // Densities below d* favor the sparse wire format, above it the dense
  // fallback. 1.0 when the dense ring never wins (e.g. world == 1).
  double crossover_density(int64_t rows, int64_t dim, int world) const;

  // The decision: the cheapest predicted variant. Deterministic ties break
  // toward allgather, then recursive doubling.
  AlgoChoice choose(const DensityEstimate& est, int64_t rows, int64_t dim,
                    int world) const;
  // Single-density convenience: delegates through
  // DensityEstimate::independent (the legacy behavior, bit for bit).
  AlgoChoice choose(double density, int64_t rows, int64_t dim,
                    int world) const;

  // Prices one training step of a table's embedding traffic under a
  // hot/cold cache split (DESIGN.md §15), per rank in µs: the cold rows'
  // AlltoAll legs shrink by the cached access fraction, while the hot
  // replicas pay a dense (hot_rows × dim) AllReduce (values codec-priced,
  // presence exact) amortized over `sync_every` steps. `tokens_per_step`
  // and `hot_access_frac` come from the allreduced access counters, so
  // every rank prices every candidate cut identically and the cache's
  // epoch switch cannot split-brain. hot_rows == 0 prices the uncached
  // hybrid path, which is how "auto" can decide the cache off entirely
  // (e.g. on latency-bound links where an extra collective never pays).
  double predict_hot_split_us(int64_t hot_rows, double hot_access_frac,
                              double tokens_per_step, int64_t dim, int world,
                              int sync_every) const;

  // Wire cost of one gradient value under the active codec (bytes/value;
  // 4.0 = uncompressed floats). Scales the value sections of the sparse
  // payload model and the compressed stages of the dense models (the whole
  // ring for kDenseRing, the inter-node stage only for kTwoLevelRing —
  // mirroring which stages the runtime actually encodes). Set it from
  // comm::codec_wire_bytes_per_value(codec). SPMD contract: it must be fed
  // identical values on every rank, or the predicted costs — and hence the
  // picks — split-brain.
  void set_codec_cost(double wire_bytes_per_value);
  double value_bytes() const { return value_bytes_; }

  // Observability for a decision actually executed: bumps the per-algorithm
  // pick/byte counters ("sparse.algo.picks{algo=...}",
  // "sparse.algo.bytes{algo=...}") and emits a "sparse.algo_pick" trace
  // instant, so perf_report attributes bytes per chosen path.
  static void record(const AlgoChoice& choice, int64_t wire_bytes);

 private:
  CostParams params_;
  int64_t chunk_bytes_;
  double value_bytes_ = 4.0;  // codec wire cost; 4.0 = raw floats
};

}  // namespace embrace::sparse
