#include "embrace/embedding_sync.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "comm/chunked_collectives.h"
#include "comm/sparse_collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "embrace/hot_row_cache.h"
#include "embrace/partitioned_embedding.h"
#include "nn/embedding.h"
#include "obs/metrics.h"
#include "sched/vertical.h"
#include "tensor/index_ops.h"

namespace embrace::core {
namespace {

// kAdaptive never reaches this mapping: the adaptive policy is a trainer
// concern (CodecPolicy) with no single comm::Codec equivalent.
comm::CodecKind to_comm_codec(CodecKind c) {
  switch (c) {
    case CodecKind::kIdentity: return comm::CodecKind::kIdentity;
    case CodecKind::kFp16: return comm::CodecKind::kFp16;
    case CodecKind::kBf16: return comm::CodecKind::kBf16;
    case CodecKind::kTopK: return comm::CodecKind::kTopK;
    case CodecKind::kAdaptive: break;
  }
  EMBRACE_CHECK(false, << "adaptive codec has no fixed comm::CodecKind");
  return comm::CodecKind::kIdentity;
}

// "<kind>/s<step>": the step-scoped op-name prefix perf tools parse.
std::string op_name(const char* kind, int step) {
  return std::string(kind) + "/s" + std::to_string(step);
}

// Byte estimates of an op that carries every table's gradient: in the
// sparse wire format, or densified.
int64_t packed_bytes(std::span<const SparseRows> grads) {
  int64_t bytes = 0;
  for (const SparseRows& g : grads) {
    bytes += static_cast<int64_t>(g.packed_byte_size());
  }
  return bytes;
}
int64_t dense_bytes(std::span<const SparseRows> grads) {
  int64_t bytes = 0;
  for (const SparseRows& g : grads) bytes += g.dense_byte_size();
  return bytes;
}

// Counts a dense head carried inside a gradient collective (DESIGN.md
// §10), beside the one_shot and ring routes comm::allreduce_walk counts.
void count_carried_head() {
  static obs::Counter& carried =
      obs::counter("comm.allreduce_algo{algo=carried}");
  carried.increment();
}

// Table t's initial parameters come from the deterministic substream
// split(t) of the seed's stream — identical across ranks, strategies and
// the oracle.
Rng table_rng(const TrainConfig& cfg, int t) {
  return Rng(cfg.seed).split(static_cast<uint64_t>(t));
}

// Column shards exchanged by AlltoAll (paper §4.1): the id gathers and the
// "embdata" lookup op, the per-shard sparse optimizers, and the hot-row
// caches with their per-step "hotsync" op. Each op carries every table —
// one AlltoAllv per op kind and step, Horovod-style fusion applied to the
// sparse ops — and each step runs ONE id allgather for all tables.
class HybridSync : public EmbeddingSync {
 public:
  std::vector<sched::Handle> lookup(int step, const Segmented& seg,
                                    const Segmented& seg_next,
                                    Tensor& emb_out) override {
    // D_cur is the previous step's D_next gather; only step 0 gathers its
    // own batch.
    all_cur_ = step == 0 ? gather_ids(seg) : std::move(all_next_);
    // The lookup AlltoAll runs as one scheduled comm op ("Emb Data"),
    // ordered after the previous step's gradient ops — the dependency the
    // paper's Figure 6(c) encodes. It also carries the previous step's
    // parked gradient parts, if any. It is a one-op group, so the
    // scheduler can replay it like the step's gradient group (DESIGN.md
    // §10).
    int64_t bytes = carried_.bytes;
    for (const auto& ids : seg.ids) {
      bytes += static_cast<int64_t>(ids.size()) * ctx_.cfg.dim *
               static_cast<int64_t>(sizeof(float));
    }
    sched::NegotiatedScheduler::Group lookup_op = ctx_.scheduler.open_group();
    std::vector<sched::Handle> handles{ctx_.submit(
        "embdata", step, Priorities::embdata(step), bytes,
        sched::OpKind::kEmbData,
        [this, &seg, &emb_out, carried = std::exchange(carried_, {})] {
          std::vector<TableLookup> sections;
          sections.reserve(static_cast<size_t>(tables()));
          for (int t = 0; t < tables(); ++t) {
            sections.push_back({.table = *shards_[t],
                                .all_ids = all_cur_[t],
                                .my_ids = seg.ids[t],
                                .cache = caches_[t].get()});
          }
          const auto [rows, grads] = PartitionedEmbedding::distributed_lookup(
              ctx_.comm_ch, sections,
              grad_sections(carried.parts, carried.codecs));
          for (int t = 0; t < tables(); ++t) {
            scatter_rows(rows[t], seg.pos[t], emb_out);
          }
          // The parked delayed parts hold only rows that no worker reads
          // at this step, so they apply after the lookup packed its reply,
          // and before this step's prior part, as the modified Adam
          // requires.
          for (size_t t = 0; t < grads.size(); ++t) {
            opts_[t]->apply(shards_[t]->shard(), grads[t],
                            nn::SparseStep::kDelayed);
          }
        })};
    lookup_op.close();
    // Algorithm 1's D_next, which is also the next step's D_cur: gathered
    // on this thread while the comm thread runs the lookup. The last step
    // feeds no next step, so it gathers nothing; an empty D_next sends its
    // whole gradient down the delayed path.
    all_next_ = step + 1 < ctx_.cfg.steps
                    ? gather_ids(seg_next)
                    : decltype(all_next_)(static_cast<size_t>(tables()));
    return handles;
  }

  // Hot-row cache sync/refresh: one op per step that syncs every table's
  // cache in table order. Submitted last so FIFO strategies run it after
  // the step's gradient exchanges; the priority strategies get the same
  // guarantee from Priorities::hotsync. The handle is deliberately dropped,
  // like the delayed op's: the scheduler's rank-agreed order already places
  // hotsync(s) before every op of step s+1, and shutdown drains the tail.
  void step_end(int step) override {
    if (!cached()) return;
    // Bytes are the budget-rows ceiling, not hot_count(): cache state
    // belongs to the comm thread, and the previous step's hotsync may still
    // be mutating it while this thread submits.
    ctx_.submit("hotsync", step, Priorities::hotsync(step),
                tables() * cache_budget_ * ctx_.cfg.dim *
                    static_cast<int64_t>(sizeof(float)),
                sched::OpKind::kOther, [this] {
                  for (const auto& cache : caches_) {
                    cache->step_end(ctx_.comm_ch, ctx_.dense_codec.get(),
                                    &*cache_picker_);
                  }
                });
  }

 protected:
  explicit HybridSync(SyncContext& ctx) : ctx_(ctx) {
    ctx_.enable_codec();
    const TrainConfig& cfg = ctx_.cfg;
    for (int t = 0; t < tables(); ++t) {
      shards_.push_back(std::make_unique<PartitionedEmbedding>(
          cfg.vocab, cfg.dim, ctx_.rank, ctx_.workers, table_rng(cfg, t)));
      opts_.push_back(
          make_sparse_optim(cfg, cfg.vocab, shards_.back()->shard_width()));
    }
    // Hot-row caches (DESIGN.md §15), one per table. Every ctor argument
    // is a pure function of the shared TrainConfig, so membership state
    // starts rank-agreed and the epoch protocol keeps it that way.
    caches_.resize(static_cast<size_t>(tables()));
    cache_budget_ =
        static_cast<int64_t>(cfg.cache_frac * static_cast<double>(cfg.vocab));
    if (cache_budget_ <= 0) return;
    HotRowCache::Config cache_cfg;
    cache_cfg.budget_rows = cache_budget_;
    cache_cfg.refresh_steps = cfg.cache_refresh_steps;
    cache_cfg.staleness = cfg.cache_staleness;
    cache_cfg.chunk_bytes = cfg.chunk_bytes;
    for (int t = 0; t < tables(); ++t) {
      // The replica optimizer spans the full dim (hot rows live full-width
      // on every rank) with the same kind/hyperparameters as the shard's —
      // the staleness-0 equivalence depends on that match.
      caches_[t] = std::make_unique<HotRowCache>(
          shards_[t].get(), opts_[t].get(),
          make_sparse_optim(cfg, cfg.vocab, cfg.dim), cache_cfg);
    }
    // The refresh-time cut pricing runs deep inside a comm op, which
    // cost_params allows: it needs no exchange to be rank-agreed.
    cache_picker_.emplace(cost_params(cfg), cfg.chunk_bytes);
    if (ctx_.dense_codec != nullptr) {
      cache_picker_->set_codec_cost(
          comm::codec_wire_bytes_per_value(*ctx_.dense_codec));
    }
  }

  int tables() const { return ctx_.cfg.num_tables; }

  // One exchange_grad section per table of `parts` (none when empty).
  std::vector<TableGrad> grad_sections(
      const std::vector<SparseRows>& parts,
      const std::vector<const comm::Codec*>& codecs) const {
    std::vector<TableGrad> sections;
    sections.reserve(parts.size());
    for (size_t t = 0; t < parts.size(); ++t) {
      sections.push_back({.table = *shards_[t],
                          .part = parts[t],
                          .codec = codecs[t],
                          .cache = caches_[t].get()});
    }
    return sections;
  }

  // Every worker's ids of every table of `batch`, in one allgatherv on the
  // main channel.
  std::vector<std::vector<std::vector<int64_t>>> gather_ids(
      const Segmented& batch) {
    return PartitionedEmbedding::allgather_ids(ctx_.main_ch, batch.ids,
                                               ctx_.cfg.vocab);
  }

  // Picks every table's codec (one allreduce in adaptive mode, on main_ch
  // like the id gather) and folds each error-feedback residual into its
  // gradient, on this thread.
  std::vector<const comm::Codec*> prepare_codecs(
      std::vector<SparseRows>& grads) {
    std::vector<const comm::Codec*> codecs =
        ctx_.choose_codecs(ctx_.main_ch, grads);
    for (int t = 0; t < tables(); ++t) {
      ctx_.apply_sparse_ef(t, grads[t], codecs[t]);
    }
    return codecs;
  }

  // The op body for one gradient part per table: one AlltoAll to the
  // owning shards, carrying the dense head when `dense` is non-empty, then
  // each shard's optimizer step.
  std::function<void()> exchange(std::vector<SparseRows> parts,
                                 std::vector<const comm::Codec*> codecs,
                                 nn::SparseStep step,
                                 std::span<float> dense = {}) {
    return [this, step, dense, parts = std::move(parts),
            codecs = std::move(codecs)] {
      const std::vector<SparseRows> g = PartitionedEmbedding::exchange_grad(
          ctx_.comm_ch, grad_sections(parts, codecs), dense);
      if (!dense.empty()) count_carried_head();
      for (int t = 0; t < tables(); ++t) {
        opts_[t]->apply(shards_[t]->shard(), g[t], step);
      }
    };
  }

  bool carries_dense(int64_t bytes) const override {
    return ctx_.carries_dense(bytes);
  }

  // Whether the hot-row caches are on: their hotsync op then runs between
  // a step's gradient ops and the next lookup.
  bool cached() const { return cache_budget_ > 0; }

  SyncContext& ctx_;
  // Algorithm 1's delayed parts, parked for the next lookup's AlltoAll:
  // per table, the part and its codec, and their byte estimate. Empty when
  // nothing rides.
  struct Carried {
    std::vector<SparseRows> parts;
    std::vector<const comm::Codec*> codecs;
    int64_t bytes = 0;
  };
  Carried carried_;
  // Every worker's ids of the current and of the next batch, per table and
  // worker (Algorithm 1's D_cur and D_next); all_cur_[t][rank] is this
  // rank's own.
  std::vector<std::vector<std::vector<int64_t>>> all_cur_;
  std::vector<std::vector<std::vector<int64_t>>> all_next_;

 private:
  std::vector<std::unique_ptr<PartitionedEmbedding>> shards_;
  std::vector<std::unique_ptr<nn::SparseOptimizer>> opts_;
  std::vector<std::unique_ptr<HotRowCache>> caches_;
  std::optional<sparse::AlgoPicker> cache_picker_;
  int64_t cache_budget_ = 0;
};

// Hybrid communication without Algorithm 1: the whole gradient travels as
// one "embgrad" op, FIFO.
class NoVssSync final : public HybridSync {
 public:
  explicit NoVssSync(SyncContext& ctx) : HybridSync(ctx) {}
  bool prioritized() const override { return false; }

  void exchange_grad(int step, std::vector<SparseRows> grads,
                     std::vector<sched::Handle>& handles,
                     std::span<float> dense) override {
    // The op's byte estimate is the gradient before error feedback.
    const int64_t bytes =
        packed_bytes(grads) + static_cast<int64_t>(dense.size_bytes());
    // Codec choice + error feedback happen here on the main thread; the
    // wire work runs on the comm thread. No VSS -> no coalescing pass: the
    // uncoalesced gradient goes on the wire; the shard coalesces before
    // applying.
    std::vector<const comm::Codec*> codecs = prepare_codecs(grads);
    handles.push_back(ctx_.submit(
        "embgrad", step, Priorities::prior(step), bytes,
        sched::OpKind::kOther,
        exchange(std::move(grads), std::move(codecs), nn::SparseStep::kFull,
                 dense)));
  }
};

// EmbRace: hybrid communication plus 2D scheduling — Algorithm 1 splits
// each table's gradient into a prior part (rows the next batch reads) and
// a delayed part that fills the queue's tail.
class EmbRaceSync final : public HybridSync {
 public:
  explicit EmbRaceSync(SyncContext& ctx) : HybridSync(ctx) {}
  bool prioritized() const override { return true; }

  void exchange_grad(int step, std::vector<SparseRows> grads,
                     std::vector<sched::Handle>& handles,
                     std::span<float> dense) override {
    // Error feedback is applied to the WHOLE gradient before Algorithm 1's
    // vertical split: the residual row-aligns with the coalesced gradient,
    // and both the prior and delayed parts then carry already-projected
    // values (re-encoding a projected payload on the wire is idempotent,
    // so the split adds no extra error and the modified-Adam prior/delayed
    // sequencing is untouched).
    std::vector<const comm::Codec*> codecs = prepare_codecs(grads);
    // Algorithm 1 on the GPU-idle window after BP, per table.
    std::vector<SparseRows> prior, delayed;
    int64_t prior_bytes = static_cast<int64_t>(dense.size_bytes());
    int64_t delayed_bytes = 0;
    for (int t = 0; t < tables(); ++t) {
      auto split = sched::vertical_sparse_schedule(
          grads[t], all_cur_[t][static_cast<size_t>(ctx_.rank)],
          flatten(all_next_[t]));
      prior_bytes += static_cast<int64_t>(split.prior.packed_byte_size());
      delayed_bytes += static_cast<int64_t>(split.delayed.packed_byte_size());
      prior.push_back(std::move(split.prior));
      delayed.push_back(std::move(split.delayed));
    }
    // The dense head, when carried, rides prior: the step's first
    // gradient AlltoAllv, which the dense optimizer step waits on anyway.
    handles.push_back(ctx_.submit(
        "prior", step, Priorities::prior(step), prior_bytes,
        sched::OpKind::kSparsePrior,
        exchange(std::move(prior), codecs, nn::SparseStep::kPrior, dense)));
    // delayed(s) holds only rows that no worker reads at step s+1, so it
    // rides the next lookup's AlltoAll instead of paying a round of its own
    // — the paper's "trickles out during FP". It can whenever a next lookup
    // exists and no op runs in between: with the caches on, hotsync(s)
    // must see delayed(s)'s hot rows first.
    if (step + 1 < ctx_.cfg.steps && !cached()) {
      carried_ = {.parts = std::move(delayed),
                  .codecs = std::move(codecs),
                  .bytes = delayed_bytes};
      return;
    }
    // Otherwise the delayed part fills the queue's tail; its step-scoped
    // priority keeps it ahead of the next step's ops (the modified Adam
    // requires delayed(s) to land before prior(s+1)), so its handle is not
    // waited on.
    ctx_.submit("delayed", step, Priorities::delayed(step), delayed_bytes,
                sched::OpKind::kSparseDelayed,
                exchange(std::move(delayed), std::move(codecs),
                         nn::SparseStep::kDelayed));
  }
};

// Full replicas on every rank: the lookup is a local forward, and one
// "embgrad" op per step aggregates every table's gradient on the comm
// thread, codec and error feedback included, and applies it.
class ReplicatedSync : public EmbeddingSync {
 public:
  bool prioritized() const override { return false; }

  std::vector<sched::Handle> lookup(int /*step*/, const Segmented& seg,
                                    const Segmented& /*seg_next*/,
                                    Tensor& emb_out) override {
    for (size_t t = 0; t < replicas_.size(); ++t) {
      scatter_rows(replicas_[t]->forward(seg.ids[t]), seg.pos[t], emb_out);
    }
    return {};
  }

 protected:
  explicit ReplicatedSync(SyncContext& ctx) : ctx_(ctx) {
    ctx_.enable_codec();
    const TrainConfig& cfg = ctx_.cfg;
    for (int t = 0; t < cfg.num_tables; ++t) {
      Rng rng = table_rng(cfg, t);
      replicas_.push_back(
          std::make_unique<nn::Embedding>(cfg.vocab, cfg.dim, rng));
      opts_.push_back(make_sparse_optim(cfg, cfg.vocab, cfg.dim));
    }
  }

  SyncContext& ctx_;
  std::vector<std::unique_ptr<nn::Embedding>> replicas_;
  std::vector<std::unique_ptr<nn::SparseOptimizer>> opts_;
};

// Horovod with the embedding gradient aggregated in dense format by ring
// AllReduce, one ring per table.
class HorovodAllReduceSync final : public ReplicatedSync {
 public:
  explicit HorovodAllReduceSync(SyncContext& ctx) : ReplicatedSync(ctx) {}

  void exchange_grad(int step, std::vector<SparseRows> grads,
                     std::vector<sched::Handle>& handles,
                     std::span<float> /*dense*/) override {
    const int64_t bytes = dense_bytes(grads);
    handles.push_back(ctx_.submit(
        "embgrad", step, Priorities::prior(step), bytes,
        sched::OpKind::kOther,
        [this, grads = std::move(grads)] { reduce(grads); }));
  }

 private:
  // The op body, on the comm thread.
  void reduce(const std::vector<SparseRows>& grads) {
    const std::vector<const comm::Codec*> codecs =
        ctx_.choose_codecs(ctx_.comm_ch, grads);
    // Every table's touched rows in one gather: `grads` hold this rank's
    // uncoalesced batch ids.
    std::vector<std::vector<int64_t>> ids;
    ids.reserve(grads.size());
    for (const SparseRows& g : grads) ids.push_back(g.indices());
    const auto all_ids = PartitionedEmbedding::allgather_ids(
        ctx_.comm_ch, ids, ctx_.cfg.vocab);
    for (size_t t = 0; t < grads.size(); ++t) {
      // Dense-format aggregation of the (sparse) gradient, with the wire
      // codec on the ring when one is configured (error feedback first, on
      // the sparse form).
      SparseRows g = grads[t];
      ctx_.apply_sparse_ef(static_cast<int>(t), g, codecs[t]);
      Tensor dense = g.to_dense();
      comm::allreduce_chunked(ctx_.comm_ch, dense.flat(),
                              ctx_.cfg.chunk_bytes, comm::ReduceOp::kSum,
                              codecs[t]);
      opts_[t]->apply(
          replicas_[t]->table(),
          SparseRows::gather(dense, unique_sorted(flatten(all_ids[t]))),
          nn::SparseStep::kFull);
    }
  }
};

// Horovod with sparse AllReduce of the embedding gradient; an AlgoPicker
// chooses the algorithm per table (DESIGN.md §12).
class HorovodAllGatherSync final : public ReplicatedSync {
 public:
  explicit HorovodAllGatherSync(SyncContext& ctx)
      : ReplicatedSync(ctx), algo_picker_(cost_params(ctx.cfg),
                                          ctx.cfg.chunk_bytes) {}

  // The head rides the per-step stats allreduce, so the pick prices the
  // two together: the stats allreduce is then exactly the one-shot.
  bool carries_dense(int64_t bytes) const override {
    return ctx_.carries_dense(
        bytes + static_cast<int64_t>(kStatsFloats * ctx_.cfg.num_tables *
                                     sizeof(float)));
  }

  void exchange_grad(int step, std::vector<SparseRows> grads,
                     std::vector<sched::Handle>& handles,
                     std::span<float> dense) override {
    const int64_t bytes =
        packed_bytes(grads) + static_cast<int64_t>(dense.size_bytes());
    handles.push_back(ctx_.submit(
        "embgrad", step, Priorities::prior(step), bytes,
        sched::OpKind::kOther,
        [this, dense, grads = std::move(grads)] { reduce(grads, dense); }));
  }

 private:
  static constexpr size_t kStatsFloats = 4;  // per table

  // The op body, on the comm thread.
  void reduce(const std::vector<SparseRows>& grads, std::span<float> dense) {
    // Rank-agreed decision inputs for every table in ONE allreduce, four
    // floats per table: per-rank distinct-row density d_r (their mean
    // prices per-rank payloads), Σ log1p(−d_r) (the union density the
    // merged result actually occupies — feeding the mean alone mispriced
    // the dense-ring crossover by up to workers× for disjoint hot sets),
    // and the |grad| mass for the codec policy. Every rank then makes the
    // same (codec, format, algorithm) decision per table. A carried dense
    // head follows the stats; the allreduce is a one-shot (carries_dense),
    // whose elementwise rank-order fold sums the head's floats bitwise as
    // the head's own one-shot would.
    std::vector<float> stats;
    stats.reserve(kStatsFloats * grads.size() + dense.size());
    for (const SparseRows& g : grads) {
      const double d = g.row_density();
      float sum_abs = 0.0f;
      for (float v : g.values().flat()) sum_abs += std::fabs(v);
      stats.insert(stats.end(),
                   {static_cast<float>(d), static_cast<float>(std::log1p(-d)),
                    sum_abs, static_cast<float>(g.values().flat().size())});
    }
    stats.insert(stats.end(), dense.begin(), dense.end());
    ctx_.comm_ch.allreduce(stats);
    if (!dense.empty()) {
      std::copy(stats.end() - static_cast<std::ptrdiff_t>(dense.size()),
                stats.end(), dense.begin());
      count_carried_head();
    }
    for (size_t t = 0; t < grads.size(); ++t) {
      const float* st = &stats[kStatsFloats * t];
      const sparse::DensityEstimate est =
          sparse::DensityEstimate::from_allreduced(
              static_cast<double>(st[0]), static_cast<double>(st[1]),
              ctx_.workers);
      const comm::Codec* codec = nullptr;
      if (ctx_.codec_policy.has_value()) {
        const double mean_abs =
            st[3] > 0.0f
                ? static_cast<double>(st[2]) / static_cast<double>(st[3])
                : 0.0;
        codec = ctx_.codec_policy->choose(static_cast<int>(t), mean_abs);
        algo_picker_.set_codec_cost(
            codec != nullptr ? comm::codec_wire_bytes_per_value(*codec)
                             : 4.0);
      }
      const sparse::AlgoChoice choice = algo_picker_.choose(
          est, ctx_.cfg.vocab, ctx_.cfg.dim, ctx_.workers);
      SparseRows g = grads[t];
      ctx_.apply_sparse_ef(static_cast<int>(t), g, codec);
      SparseRows total =
          ctx_.grp != nullptr
              ? comm::sparse_allreduce(*ctx_.grp, g, choice.algo,
                                       choice.chunk_bytes, codec)
              : comm::sparse_allreduce(ctx_.comm_ch, g, choice.algo,
                                       choice.chunk_bytes, codec);
      sparse::AlgoPicker::record(choice,
                                 static_cast<int64_t>(g.packed_byte_size()));
      opts_[t]->apply(replicas_[t]->table(), total.coalesced(),
                      nn::SparseStep::kFull);
    }
  }

  sparse::AlgoPicker algo_picker_;
};

// Embedding tables on shared parameter servers (make_param_servers): the
// lookup pulls rows, and one "embgrad" op per step pushes each table's
// gradient to its own server, in table order; the server applies SGD. The
// codec knob does not apply.
class PsSync : public EmbeddingSync {
 public:
  std::vector<sched::Handle> lookup(int /*step*/, const Segmented& seg,
                                    const Segmented& /*seg_next*/,
                                    Tensor& emb_out) override {
    for (size_t t = 0; t < ctx_.ps.size(); ++t) {
      scatter_rows(ctx_.ps[t]->pull_rows(seg.ids[t]), seg.pos[t], emb_out);
    }
    return {};
  }

 protected:
  explicit PsSync(SyncContext& ctx) : ctx_(ctx) {}

  SyncContext& ctx_;
};

// Parallax: sparse push to a sharded PS, FIFO.
class ParallaxSync final : public PsSync {
 public:
  explicit ParallaxSync(SyncContext& ctx) : PsSync(ctx) {}
  bool prioritized() const override { return false; }

  void exchange_grad(int step, std::vector<SparseRows> grads,
                     std::vector<sched::Handle>& handles,
                     std::span<float> /*dense*/) override {
    const int64_t bytes = packed_bytes(grads);
    handles.push_back(ctx_.submit(
        "embgrad", step, Priorities::prior(step), bytes,
        sched::OpKind::kOther, [this, grads = std::move(grads)] {
          for (size_t t = 0; t < grads.size(); ++t) {
            ctx_.ps[t]->push_sparse(grads[t]);
          }
        }));
  }
};

// BytePS: dense-format push, priority-scheduled (ByteScheduler).
class BytePsSync final : public PsSync {
 public:
  explicit BytePsSync(SyncContext& ctx) : PsSync(ctx) {}
  bool prioritized() const override { return true; }

  void exchange_grad(int step, std::vector<SparseRows> grads,
                     std::vector<sched::Handle>& handles,
                     std::span<float> /*dense*/) override {
    // The embedding is what the next FP needs first, so its push jumps the
    // dense-block queue.
    const int64_t bytes = dense_bytes(grads);
    handles.push_back(ctx_.submit(
        "embgrad", step, Priorities::prior(step), bytes,
        sched::OpKind::kSparsePrior, [this, grads = std::move(grads)] {
          for (size_t t = 0; t < grads.size(); ++t) {
            ctx_.ps[t]->push_dense(grads[t].to_dense());
          }
        }));
  }
};

}  // namespace

void scatter_rows(const Tensor& rows, const std::vector<int64_t>& pos,
                  Tensor& emb_out) {
  EMBRACE_CHECK_EQ(rows.rows(), static_cast<int64_t>(pos.size()));
  for (size_t k = 0; k < pos.size(); ++k) {
    auto src = rows.row(static_cast<int64_t>(k));
    auto dst = emb_out.row(pos[k]);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

std::unique_ptr<nn::SparseOptimizer> make_sparse_optim(const TrainConfig& c,
                                                       int64_t rows,
                                                       int64_t dim) {
  switch (c.optim) {
    case OptimKind::kSgd: return std::make_unique<nn::SparseSgd>(c.lr);
    case OptimKind::kAdagrad:
      return std::make_unique<nn::SparseAdagrad>(rows, dim, c.lr);
    case OptimKind::kAdam:
      return std::make_unique<nn::SparseAdam>(rows, dim, c.lr,
                                              /*modified=*/true);
  }
  return nullptr;
}

sparse::CostParams cost_params(const TrainConfig& cfg) {
  const sparse::CostParams defaults =
      sparse::CostParams::from_simnet_defaults();
  const auto knob = [](double v, double fallback) {
    return v > 0.0 ? v : fallback;
  };
  sparse::CostParams p = defaults;
  p.link.alpha_us = knob(cfg.link_alpha_us, defaults.link.alpha_us);
  p.link.bytes_per_us =
      knob(cfg.link_bytes_per_us, defaults.link.bytes_per_us);
  // Only a real two-tier layout admits kTwoLevelRing into the candidate
  // set: the same condition as CommGroup::two_level() on a validated
  // config, so the runtime can always honor the pick.
  if (cfg.topo_nodes > 1 && cfg.topo_gpus_per_node > 1) {
    p.nodes = cfg.topo_nodes;
    p.gpus_per_node = cfg.topo_gpus_per_node;
    p.intra.alpha_us = knob(cfg.link_intra_alpha_us, defaults.intra.alpha_us);
    p.intra.bytes_per_us =
        knob(cfg.link_intra_bytes_per_us, defaults.intra.bytes_per_us);
  }
  return p;
}

void SyncContext::enable_codec() {
  const bool adaptive = cfg.codec == CodecKind::kAdaptive;
  sparse::CodecPolicyConfig codec_cfg;
  codec_cfg.adaptive = adaptive;
  if (!adaptive) codec_cfg.base = to_comm_codec(cfg.codec);
  codec_cfg.topk_fraction = cfg.codec_topk;
  if (!adaptive && codec_cfg.base == comm::CodecKind::kIdentity) return;
  codec_policy.emplace(codec_cfg);
  dense_codec = comm::make_codec(
      adaptive ? comm::CodecKind::kBf16 : codec_cfg.base, cfg.codec_topk);
  // Rank-local error-feedback residuals: the quantization error of step s
  // is added back into the gradient of step s+1, which is what keeps
  // lossy codecs (top-k above all) convergent.
  if (codec_policy->may_be_lossy()) {
    for (int t = 0; t < cfg.num_tables; ++t) {
      sparse_ef.emplace_back(cfg.vocab, cfg.dim);
    }
  }
}

std::vector<const comm::Codec*> SyncContext::choose_codecs(
    comm::Communicator& ch, std::span<const SparseRows> grads) const {
  std::vector<const comm::Codec*> codecs(grads.size(), nullptr);
  if (!codec_policy.has_value()) return codecs;
  // {sum |g|, count} per table, rank-agreed in one allreduce.
  std::vector<float> mass(2 * grads.size(), 0.0f);
  if (codec_policy->config().adaptive) {
    for (size_t i = 0; i < grads.size(); ++i) {
      for (float v : grads[i].values().flat()) mass[2 * i] += std::fabs(v);
      mass[2 * i + 1] = static_cast<float>(grads[i].values().flat().size());
    }
    ch.allreduce(mass);
  }
  for (size_t i = 0; i < grads.size(); ++i) {
    const double mean_abs =
        mass[2 * i + 1] > 0.0f ? static_cast<double>(mass[2 * i]) /
                                     static_cast<double>(mass[2 * i + 1])
                               : 0.0;
    codecs[i] = codec_policy->choose(static_cast<int>(i), mean_abs);
  }
  return codecs;
}

bool SyncContext::carries_dense(int64_t bytes) const {
  return dense_codec == nullptr && grp == nullptr &&
         comm::pick_dense_allreduce(bytes, workers, comm_ch.worst_link()) ==
             comm::DenseAllReduceAlgo::kOneShot;
}

sched::Handle SyncContext::submit(const char* kind, int step, double priority,
                                  int64_t bytes, sched::OpKind op_kind,
                                  std::function<void()> body) {
  return scheduler.submit({.name = op_name(kind, step),
                           .priority = prio(priority),
                           .bytes = bytes,
                           .kind = op_kind},
                          std::move(body));
}

void SyncContext::apply_sparse_ef(int t, SparseRows& g,
                                  const comm::Codec* codec) {
  if (sparse_ef.empty() || codec == nullptr || codec->lossless()) return;
  g = g.coalesced();
  sparse_ef[static_cast<size_t>(t)].apply(g, *codec);
}

std::unique_ptr<EmbeddingSync> make_embedding_sync(const TrainConfig& cfg,
                                                   SyncContext& ctx) {
  std::unique_ptr<EmbeddingSync> sync;
  switch (cfg.strategy) {
    case StrategyKind::kHorovodAllReduce:
      sync = std::make_unique<HorovodAllReduceSync>(ctx); break;
    case StrategyKind::kHorovodAllGather:
      sync = std::make_unique<HorovodAllGatherSync>(ctx); break;
    case StrategyKind::kBytePsDense:
      sync = std::make_unique<BytePsSync>(ctx); break;
    case StrategyKind::kParallaxPs:
      sync = std::make_unique<ParallaxSync>(ctx); break;
    case StrategyKind::kEmbRaceNoVss:
      sync = std::make_unique<NoVssSync>(ctx); break;
    case StrategyKind::kEmbRace:
      sync = std::make_unique<EmbRaceSync>(ctx); break;
  }
  EMBRACE_CHECK(sync != nullptr);
  ctx.prioritized = sync->prioritized();
  return sync;
}

std::vector<std::unique_ptr<comm::ShardedParameterServer>> make_param_servers(
    const TrainConfig& cfg, int workers) {
  std::vector<std::unique_ptr<comm::ShardedParameterServer>> ps;
  if (cfg.strategy != StrategyKind::kParallaxPs &&
      cfg.strategy != StrategyKind::kBytePsDense) {
    return ps;
  }
  // Server-side SGD must apply the same averaged gradient: workers push
  // grads already scaled by 1/N, so the server lr equals cfg.lr.
  for (int t = 0; t < cfg.num_tables; ++t) {
    Rng rng = table_rng(cfg, t);
    Tensor init = nn::Embedding(cfg.vocab, cfg.dim, rng).table();
    ps.push_back(std::make_unique<comm::ShardedParameterServer>(
        init, std::max(1, workers / 2), workers, cfg.lr));
  }
  return ps;
}

}  // namespace embrace::core
