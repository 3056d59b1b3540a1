// How embedding lookups and gradients travel: the one thing the compared
// strategies (paper §5.2.3) do differently. trainer.cpp's step loop is
// shared; each strategy is one EmbeddingSync over a family base —
// HybridSync (column shards + AlltoAll: EmbRaceSync, NoVssSync),
// ReplicatedSync (HorovodAllReduceSync, HorovodAllGatherSync) or PsSync
// (ParallaxSync, BytePsSync). make_embedding_sync is the only place a
// StrategyKind turns into behaviour. Internal to embrace_core.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "comm/comm_group.h"
#include "comm/communicator.h"
#include "comm/param_server.h"
#include "embrace/error_feedback.h"
#include "embrace/strategy.h"
#include "nn/optim.h"
#include "sched/negotiated_scheduler.h"
#include "sparse/algo_picker.h"
#include "sparse/codec_policy.h"
#include "tensor/sparse_rows.h"

namespace embrace::core {

// Step-scoped priorities: ops of step s always precede ops of step s+1 in
// the priority order (required for the modified Adam's prior/delayed
// sequencing); within a step the 2D order is prior < embdata < dense <
// delayed. EmbRace submits a standalone delayed op only at the last step,
// or on every step with the hot-row cache on; otherwise delayed(s) rides
// embdata(s+1), which runs after every op of step s and before prior(s+1).
// A one-shot-priced dense head rides prior(s) (EmbeddingSync::
// carries_dense), and then no dense op is submitted.
// Every strategy runs at most one op per kind per step, with every table
// inside it.
struct Priorities {
  static double base(int step) { return 1e6 * step; }
  static double prior(int step) { return base(step); }
  static double embdata(int step) { return base(step) + 1; }
  static double dense(int step) { return base(step) + 10; }
  static double delayed(int step) { return base(step) + 1e5; }
  // Hot-row cache sync/refresh: strictly after every gradient op of step s
  // (the pending buffer must hold the full step's hot gradients) and before
  // every op of step s+1 (the next lookups read the synced replica).
  static double hotsync(int step) { return base(step) + 2e5; }
};

// Sentence segmentation for multi-table models: table t embeds columns
// [S*t/T, S*(t+1)/T) of every sentence. Holds per-table token ids and
// their flat positions within the (B*S x dim) embedding-output block.
struct Segmented {
  std::vector<std::vector<int64_t>> ids;  // per table
  std::vector<std::vector<int64_t>> pos;  // per table, flat row positions
};

// Scatters looked-up rows for one table into the shared embedding output.
void scatter_rows(const Tensor& rows, const std::vector<int64_t>& pos,
                  Tensor& emb_out);

std::unique_ptr<nn::SparseOptimizer> make_sparse_optim(const TrainConfig& c,
                                                       int64_t rows,
                                                       int64_t dim);

// The α–β link every AlgoPicker prices (DESIGN.md §12): simnet's defaults,
// each overridden by its link_* knob when that knob is > 0, plus the node
// layout and intra-node tier when the topology has a real second tier. A
// pure function of the shared config, so it is rank-agreed without any
// exchange and safe to call from inside a comm op.
sparse::CostParams cost_params(const TrainConfig& cfg);

// What the strategies share with the step loop, one per rank. The wire
// codec stays off until a strategy that puts embedding gradients on the
// fabric calls enable_codec() (the PS emulations' wire is emulated).
struct SyncContext {
  const TrainConfig& cfg;
  int rank = 0;
  int workers = 1;
  sched::NegotiatedScheduler& scheduler;
  comm::Communicator& comm_ch;  // collectives run by the comm thread
  comm::Communicator& main_ch;  // inline metadata from the main thread
  comm::CommGroup* grp = nullptr;  // two-level tree, or null
  // Parameter-server strategies only: one sharded PS per table.
  std::span<const std::unique_ptr<comm::ShardedParameterServer>> ps;

  // Wire codec (DESIGN.md §14). Identity builds no policy: every
  // collective gets a null codec, so the wire is byte-for-byte codec-free.
  // Adaptive mode keeps the dense head on bf16 and picks per table.
  std::optional<sparse::CodecPolicy> codec_policy;
  std::unique_ptr<comm::Codec> dense_codec;
  std::vector<SparseErrorFeedback> sparse_ef;  // per table, rank-local

  // EmbRace and BytePS (ByteScheduler) use priority scheduling; the rest
  // drain their queues FIFO. Set from EmbeddingSync::prioritized().
  bool prioritized = false;
  uint64_t fifo_seq = 0;

  // An op's priority: `v` when prioritized, else its submission order.
  double prio(double v) {
    return prioritized ? v : static_cast<double>(fifo_seq++);
  }
  // Submits the op "<kind>/s<step>", which carries every table, at
  // priority prio(priority).
  sched::Handle submit(const char* kind, int step, double priority,
                       int64_t bytes, sched::OpKind op_kind,
                       std::function<void()> body);
  void enable_codec();
  // Whether a dense head of `bytes` may ride a gradient collective instead
  // of its own AllReduce (DESIGN.md §10): no dense codec, no CommGroup, and
  // the one-shot is the flat AllReduce's pick. A pure function of the
  // config and the fabric's link table, so every rank agrees.
  bool carries_dense(int64_t bytes) const;
  // The per-op codec of each table's sparse gradient, grads[t]. Adaptive
  // mode needs each table's rank-agreed mean |grad|, so it costs ONE tiny
  // allreduce of every table's {sum |g|, count} on `ch` (the channel the
  // caller is allowed to block on: main_ch from the issue scope, comm_ch
  // from an op body); fixed modes are pure local.
  std::vector<const comm::Codec*> choose_codecs(
      comm::Communicator& ch, std::span<const SparseRows> grads) const;
  // Folds table t's error-feedback residual into `g` ahead of a lossy
  // encode, coalescing first so the residual stays row-aligned. A no-op
  // without a lossy codec.
  void apply_sparse_ef(int t, SparseRows& g, const comm::Codec* codec);
};

class EmbeddingSync {
 public:
  virtual ~EmbeddingSync() = default;

  // Fills this rank's rows of `emb_out` for step `step` (`seg`: this
  // batch, `seg_next`: the next one). Returns the handles to wait on: empty
  // when the lookup ran locally, else the lookup runs on the comm thread
  // and this call only issued it.
  virtual std::vector<sched::Handle> lookup(int step, const Segmented& seg,
                                            const Segmented& seg_next,
                                            Tensor& emb_out) = 0;
  // Whether exchange_grad carries a flattened dense head of `bytes`; false
  // keeps the head on its own dense op. Rank-agreed.
  virtual bool carries_dense(int64_t /*bytes*/) const { return false; }
  // Submits the gradient exchange of every table (`grads[t]`: this rank's
  // rows of table t, already scaled by 1/workers) and appends any handle
  // to wait on. A non-empty `dense` (only when carries_dense holds for its
  // size) is this rank's flattened head; the one appended handle's op then
  // also replaces it with the sum over ranks in rank order 0..N-1, bitwise
  // the one-shot AllReduce's, and `dense` must stay alive until it runs.
  virtual void exchange_grad(int step, std::vector<SparseRows> grads,
                             std::vector<sched::Handle>& handles,
                             std::span<float> dense) = 0;
  // Submits the step's trailing ops, after every gradient exchange.
  virtual void step_end(int /*step*/) {}
  virtual bool prioritized() const = 0;
};

// The strategy for cfg.strategy over `ctx`; also sets ctx.prioritized.
std::unique_ptr<EmbeddingSync> make_embedding_sync(const TrainConfig& cfg,
                                                   SyncContext& ctx);

// One sharded parameter server per table for the PS strategies (empty for
// the rest), initialized to the same tables every rank and the oracle
// start from.
std::vector<std::unique_ptr<comm::ShardedParameterServer>> make_param_servers(
    const TrainConfig& cfg, int workers);

}  // namespace embrace::core
