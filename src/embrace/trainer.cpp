// Functional distributed trainer: real worker threads, real tensors, real
// collectives. Implements the five strategies of strategy.h over the
// in-process cluster runtime, with EmbRace's hybrid communication and 2D
// scheduling exactly as the paper describes them (paper §4, §5.1):
//   * column-partitioned embeddings with two AlltoAll passes per step,
//   * a negotiated priority queue + communication thread,
//   * Algorithm 1's prior/delayed gradient split with the modified Adam.
//
// Synchronous-training contract: every strategy applies, per step, the
// average of all workers' gradients — so all five produce (up to float
// summation order) identical loss curves, which equivalence tests pin
// against the single-process oracle.
#include "embrace/strategy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "comm/chunk_plan.h"
#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "comm/comm_group.h"
#include "comm/hierarchical_collectives.h"
#include "simnet/topology.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "common/stopwatch.h"
#include "comm/param_server.h"
#include "comm/sparse_collectives.h"
#include "common/error.h"
#include "data/loader.h"
#include "embrace/error_feedback.h"
#include "embrace/hot_row_cache.h"
#include "embrace/partitioned_embedding.h"
#include "nn/embedding.h"
#include "nn/optim.h"
#include "sched/negotiated_scheduler.h"
#include "sched/vertical.h"
#include "sparse/algo_picker.h"
#include "sparse/codec_policy.h"
#include "tensor/fusion.h"
#include "tensor/index_ops.h"

namespace embrace::core {
namespace {

// Channel layout on the shared fabric.
constexpr int kControlChannel = 0;  // scheduler negotiation
constexpr int kCommChannel = 1;     // collectives run by the comm thread
constexpr int kMainChannel = 2;     // inline metadata from the main thread
constexpr int kAbortChannel = 3;    // best-effort rendezvous on failure
constexpr int kPerfChannel = 4;     // per-step StepProfile exchange

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

std::unique_ptr<nn::DenseOptimizer> make_dense_optim(
    const TrainConfig& c, std::vector<nn::Parameter*> params) {
  switch (c.optim) {
    case OptimKind::kSgd:
      return std::make_unique<nn::Sgd>(std::move(params), c.lr);
    case OptimKind::kAdagrad:
      return std::make_unique<nn::Adagrad>(std::move(params), c.lr);
    case OptimKind::kAdam:
      return std::make_unique<nn::Adam>(std::move(params), c.lr);
  }
  return nullptr;
}

// Boundary mappings from the typed TrainConfig knobs to the subsystem
// enums. TrainConfig owns the user-facing vocabulary (parse_*/name() in
// train_config.cpp); the comm/sparse layers keep their own enums so they
// stay usable without the trainer.
sparse::AlgoMode to_algo_mode(SparseAlgo a) {
  switch (a) {
    case SparseAlgo::kAuto: return sparse::AlgoMode::kAuto;
    case SparseAlgo::kAllgather: return sparse::AlgoMode::kForceAllgather;
    case SparseAlgo::kRecursiveDoubling:
      return sparse::AlgoMode::kForceRecursiveDoubling;
    case SparseAlgo::kDense: return sparse::AlgoMode::kForceDense;
    case SparseAlgo::kTwoLevel: return sparse::AlgoMode::kForceTwoLevel;
  }
  return sparse::AlgoMode::kAuto;
}

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

data::CorpusConfig corpus_config(const TrainConfig& c) {
  data::CorpusConfig cfg;
  cfg.vocab_size = c.vocab;
  cfg.zipf_skew = c.zipf_skew;
  cfg.min_sentence_len = c.min_sentence_len;
  cfg.max_sentence_len = c.max_sentence_len;
  cfg.reuse_prob = c.reuse_prob;
  cfg.seed = c.seed;
  return cfg;
}

std::vector<int64_t> targets_of(const data::Batch& batch, int64_t classes) {
  std::vector<int64_t> targets;
  targets.reserve(static_cast<size_t>(batch.batch_size()));
  for (const auto& row : batch.rows) {
    targets.push_back(row.front() % classes);
  }
  return targets;
}

float global_mean_loss(comm::Communicator& main_ch, float local_loss,
                       int workers) {
  std::vector<float> v{local_loss};
  main_ch.allreduce(v);
  return v[0] / static_cast<float>(workers);
}

// Per-step op names (unique across steps for the scheduler's backlog).
std::string dense_op(int step, size_t param) {
  return "dense/s" + std::to_string(step) + "/" + std::to_string(param);
}
std::string emb_op(const char* kind, int step, int table) {
  return std::string(kind) + "/s" + std::to_string(step) + "/t" +
         std::to_string(table);
}

// Sentence segmentation for multi-table models: table t embeds columns
// [S*t/T, S*(t+1)/T) of every sentence. Returns per-table token ids and
// their flat positions within the (B*S x dim) embedding-output block.
struct Segmented {
  std::vector<std::vector<int64_t>> ids;  // per table
  std::vector<std::vector<int64_t>> pos;  // per table, flat row positions
};

Segmented segment_batch(const data::Batch& batch, int tables) {
  Segmented out;
  out.ids.resize(static_cast<size_t>(tables));
  out.pos.resize(static_cast<size_t>(tables));
  const int64_t seq = batch.seq_len();
  for (int t = 0; t < tables; ++t) {
    const int64_t c0 = seq * t / tables;
    const int64_t c1 = seq * (t + 1) / tables;
    for (int64_t b = 0; b < batch.batch_size(); ++b) {
      for (int64_t c = c0; c < c1; ++c) {
        out.ids[static_cast<size_t>(t)].push_back(
            batch.rows[static_cast<size_t>(b)][static_cast<size_t>(c)]);
        out.pos[static_cast<size_t>(t)].push_back(b * seq + c);
      }
    }
  }
  return out;
}

// Scatters looked-up rows for one table into the shared embedding output.
void scatter_rows(const Tensor& rows, const std::vector<int64_t>& pos,
                  Tensor& emb_out) {
  EMBRACE_CHECK_EQ(rows.rows(), static_cast<int64_t>(pos.size()));
  for (size_t k = 0; k < pos.size(); ++k) {
    auto src = rows.row(static_cast<int64_t>(k));
    auto dst = emb_out.row(pos[k]);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

// Gathers one table's slice of the embedding-output gradient.
Tensor gather_rows(const Tensor& d_emb, const std::vector<int64_t>& pos) {
  Tensor out({static_cast<int64_t>(pos.size()), d_emb.cols()});
  for (size_t k = 0; k < pos.size(); ++k) {
    auto src = d_emb.row(pos[k]);
    auto dst = out.row(static_cast<int64_t>(k));
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

// Step-scoped priorities: ops of step s always precede ops of step s+1 in
// the priority order (required for the modified Adam's prior/delayed
// sequencing); within a step the 2D order is prior < embdata < dense
// (FP-order) < delayed.
struct Priorities {
  static double base(int step) { return 1e6 * step; }
  static double prior(int step, int table) {
    return base(step) + 0.01 * table;
  }
  static double embdata(int step, int table) {
    return base(step) + 1 + 0.01 * table;
  }
  static double dense(int step, size_t fp_index) {
    return base(step) + 10 + static_cast<double>(fp_index);
  }
  static double delayed(int step, int table) {
    return base(step) + 1e5 + table;
  }
  // Hot-row cache sync/refresh: strictly after every gradient op of step s
  // (the pending buffer must hold the full step's hot gradients) and before
  // every op of step s+1 (the next lookups read the synced replica).
  static double hotsync(int step, int table) {
    return base(step) + 2e5 + table;
  }
  // FIFO strategies: priority == submission order.
  static double fifo(uint64_t seq) { return static_cast<double>(seq); }
};

struct SharedState {
  // Parallax only: one sharded PS per embedding table.
  std::vector<std::unique_ptr<comm::ShardedParameterServer>> ps;
  std::mutex result_mutex;
  std::vector<float> losses;
  std::vector<sched::ExecRecord> comm_log;
  // Full rank × step phase matrix (perf_profile runs only; rank 0 writes).
  std::vector<obs::StepProfile> step_profiles;
};

bool is_hybrid(StrategyKind s) {
  return s == StrategyKind::kEmbRace || s == StrategyKind::kEmbRaceNoVss;
}

bool uses_ps(StrategyKind s) {
  return s == StrategyKind::kParallaxPs || s == StrategyKind::kBytePsDense;
}

// ---------------------------------------------------------------------------
// The per-rank training function.
// ---------------------------------------------------------------------------
void worker_main(const TrainConfig& cfg, int workers, SharedState& shared,
                 comm::Communicator& comm) {
  const int rank = comm.rank();
  // Tag this thread's trace events and log lines with the rank; the comm
  // thread tags itself inside NegotiatedScheduler::run().
  obs::bind_thread(rank, "train");
  // Per-step wall time this rank's training thread spends blocked on
  // communication handles (the paper's "computation stall").
  obs::Histogram& stall_hist =
      obs::histogram("trainer.stall_ms{rank=" + std::to_string(rank) + "}",
                     obs::default_latency_edges_ms());
  static obs::Counter& steps_done = obs::counter("trainer.steps");
  const float inv_n = 1.0f / static_cast<float>(workers);
  // EmbRace and BytePS (ByteScheduler) use priority scheduling; the rest
  // drain their queues FIFO.
  const bool fifo = cfg.strategy != StrategyKind::kEmbRace &&
                    cfg.strategy != StrategyKind::kBytePsDense;

  comm::Communicator comm_ch = comm.channel(kCommChannel);
  comm::Communicator main_ch = comm.channel(kMainChannel);
  comm::Communicator perf_ch = comm.channel(kPerfChannel);
  // CommGroup tree over the comm channel (DESIGN.md §13), built before any
  // op is submitted: the splits are main-thread collectives on comm_ch, and
  // the comm thread only touches comm_ch through ops submitted later. The
  // node/leader sub-communicators are used exclusively from the comm
  // thread afterwards.
  std::optional<comm::CommGroup> comm_group;
  if (cfg.hierarchical_collectives && workers > 1 &&
      comm.fabric().has_topology()) {
    comm_group.emplace(comm::build_comm_group(comm_ch));
  }
  comm::CommGroup* grp = comm_group.has_value() ? &*comm_group : nullptr;
  // Dense AllReduce takes the two-level route only with chunking off: the
  // chunked cursor stays on the flat ring, because chunk-granular
  // preemption across topology tiers is not implemented.
  const bool two_level_dense =
      cfg.chunk_bytes <= 0 && grp != nullptr && grp->two_level();
  sched::NegotiatedScheduler scheduler(comm.channel(kControlChannel));
  // Sparse-algorithm picker for kHorovodAllGather's embedding gradients
  // (DESIGN.md §12). Cost params are fixed for the whole run and must be
  // identical on every rank (a split-brain algorithm choice deadlocks the
  // collective): rank 0 resolves measured-profile-vs-simnet-defaults and
  // broadcasts the α–β pair before the step loop.
  std::optional<sparse::AlgoPicker> algo_picker;
  if (cfg.strategy == StrategyKind::kHorovodAllGather) {
    const sparse::AlgoMode mode = to_algo_mode(cfg.sparse_algo);
    // Rank 0's view of the link profile is authoritative: its {α, β,
    // measured?} triple is broadcast so every rank prices ops from the
    // exact same constants — a rank pair disagreeing on the efficiency set
    // would split-brain the algorithm choice.
    sparse::CostParams params = sparse::CostParams::from_simnet_defaults();
    std::vector<float> ab(3);
    if (rank == 0) {
      if (auto measured =
              sparse::CostParams::from_measured(obs::link_profiler())) {
        params = *measured;
        ab[2] = 1.0f;
      }
      ab[0] = static_cast<float>(params.link.alpha_us);
      ab[1] = static_cast<float>(params.link.bytes_per_us);
    }
    main_ch.broadcast(ab, /*root=*/0);
    params.link.alpha_us = static_cast<double>(ab[0]);
    params.link.bytes_per_us = static_cast<double>(ab[1]);
    if (ab[2] != 0.0f) {
      // Measured constants carry no scheme derate (see from_measured).
      params.allgather_eff = 1.0;
      params.allreduce_eff = 1.0;
      params.alltoall_eff = 1.0;
    }
    // Topology terms are rank-agreed by construction (pure functions of the
    // shared TrainConfig), so they need no broadcast. Only a real two-tier
    // layout with the hierarchical path enabled admits kTwoLevelRing into
    // the candidate set — the runtime could not honor the pick otherwise.
    if (grp != nullptr && grp->two_level()) {
      params.nodes = cfg.topo_nodes;
      params.gpus_per_node = cfg.topo_gpus_per_node;
      const sparse::CostParams defaults =
          sparse::CostParams::from_simnet_defaults();
      params.intra.alpha_us = cfg.link_intra_alpha_us > 0.0
                                  ? cfg.link_intra_alpha_us
                                  : defaults.intra.alpha_us;
      params.intra.bytes_per_us = cfg.link_intra_bytes_per_us > 0.0
                                      ? cfg.link_intra_bytes_per_us
                                      : defaults.intra.bytes_per_us;
    }
    algo_picker.emplace(mode, params, cfg.chunk_bytes);
  }
  // Wire-codec policy (DESIGN.md §14). Identity — the default — builds no
  // policy at all: every collective below gets a null codec and the wire
  // stays byte-for-byte what it was before codecs existed. The PS
  // emulations ignore the knob (their push/pull wire is emulated, not the
  // fabric's). Adaptive mode keeps the dense head on bf16 (one stream, no
  // per-table magnitude to adapt on) and picks per embedding table.
  const bool adaptive_codec = cfg.codec == CodecKind::kAdaptive;
  sparse::CodecPolicyConfig codec_cfg;
  codec_cfg.adaptive = adaptive_codec;
  if (!adaptive_codec) {
    codec_cfg.base = to_comm_codec(cfg.codec);
  }
  codec_cfg.topk_fraction = cfg.codec_topk;
  const bool use_codec =
      !uses_ps(cfg.strategy) &&
      (adaptive_codec || codec_cfg.base != comm::CodecKind::kIdentity);
  std::optional<sparse::CodecPolicy> codec_policy;
  std::unique_ptr<comm::Codec> dense_codec_storage;
  const comm::Codec* dense_codec = nullptr;
  if (use_codec) {
    codec_policy.emplace(codec_cfg);
    dense_codec_storage = comm::make_codec(
        adaptive_codec ? comm::CodecKind::kBf16 : codec_cfg.base,
        cfg.codec_topk);
    dense_codec = dense_codec_storage.get();
  }
  const bool use_ef = use_codec && cfg.codec_error_feedback &&
                      codec_policy->may_be_lossy();
  DenseErrorFeedback dense_ef;
  std::vector<SparseErrorFeedback> sparse_ef;  // per table, rank-local
  if (use_ef) {
    for (int t = 0; t < cfg.num_tables; ++t) {
      sparse_ef.emplace_back(cfg.vocab, cfg.dim);
    }
  }
  // The per-op codec for one table's sparse gradient. Adaptive mode needs
  // the table's rank-agreed mean |grad|, so it costs one tiny allreduce on
  // `ch` (the channel the caller is allowed to block on: main_ch from the
  // issue scope, comm_ch from an op body); fixed modes are pure local.
  auto choose_table_codec = [&](comm::Communicator& ch, int t,
                                const SparseRows& g) -> const comm::Codec* {
    if (!codec_policy.has_value()) return nullptr;
    double mean_abs = 0.0;
    if (adaptive_codec) {
      float sum_abs = 0.0f;
      for (float v : g.values().flat()) sum_abs += std::fabs(v);
      std::vector<float> m{sum_abs,
                           static_cast<float>(g.values().flat().size())};
      ch.allreduce(m);
      mean_abs = m[1] > 0.0f ? static_cast<double>(m[0]) /
                                   static_cast<double>(m[1])
                             : 0.0;
    }
    return codec_policy->choose(t, mean_abs);
  };
  // Folds table t's error-feedback residual into `g` ahead of a lossy
  // encode, coalescing first so the residual stays row-aligned. A no-op
  // without a lossy codec. Runs on the thread of whichever call site owns
  // the table's exchange.
  auto apply_sparse_ef = [&](int t, SparseRows& g, const comm::Codec* codec) {
    if (!use_ef || codec == nullptr || codec->lossless()) return;
    g = g.coalesced();
    sparse_ef[static_cast<size_t>(t)].apply(g, *codec);
  };
  uint64_t fifo_seq = 0;
  auto fifo_priority = [&] { return Priorities::fifo(fifo_seq++); };
  auto make_desc = [](std::string name, double priority, int64_t bytes,
                      sched::OpKind kind) {
    sched::OpDesc desc;
    desc.name = std::move(name);
    desc.priority = priority;
    desc.bytes = bytes;
    desc.kind = kind;
    return desc;
  };

  // --- model state (identical initialization on every rank) ---
  // The master RNG stream is consumed in a fixed order: embedding tables
  // in index order first, then the head, so every strategy (and the
  // oracle) sees the same initial parameters.
  const int tables = cfg.num_tables;
  Rng emb_rng(cfg.seed);
  Rng head_rng(cfg.seed + 1);
  std::vector<std::unique_ptr<nn::Embedding>> replicas;       // baselines
  std::vector<std::unique_ptr<PartitionedEmbedding>> shards;  // hybrid
  std::vector<std::unique_ptr<nn::SparseOptimizer>> sparse_opts;
  for (int t = 0; t < tables; ++t) {
    // Table t's parameters come from the deterministic substream
    // emb_rng.split(t) — identical across ranks and in the oracle.
    Rng table_rng = emb_rng.split(static_cast<uint64_t>(t));
    if (is_hybrid(cfg.strategy)) {
      shards.push_back(std::make_unique<PartitionedEmbedding>(
          cfg.vocab, cfg.dim, rank, workers, table_rng));
      sparse_opts.push_back(
          make_sparse_optim(cfg, cfg.vocab, shards.back()->shard_width()));
    } else {
      if (!uses_ps(cfg.strategy)) {
        replicas.push_back(
            std::make_unique<nn::Embedding>(cfg.vocab, cfg.dim, table_rng));
      }
      sparse_opts.push_back(make_sparse_optim(cfg, cfg.vocab, cfg.dim));
    }
  }
  // Hot-row caches (DESIGN.md §15), one per table, hybrid strategies only
  // (validated). Every ctor argument is a pure function of the shared
  // TrainConfig, so membership state starts rank-agreed and the epoch
  // protocol keeps it that way.
  std::vector<std::unique_ptr<HotRowCache>> caches(
      static_cast<size_t>(tables));
  std::optional<sparse::AlgoPicker> cache_picker;
  const int64_t cache_budget = static_cast<int64_t>(
      cfg.cache_frac * static_cast<double>(cfg.vocab));
  if (is_hybrid(cfg.strategy) && cache_budget > 0) {
    HotRowCache::Config cache_cfg;
    cache_cfg.budget_rows = cache_budget;
    cache_cfg.refresh_steps = cfg.cache_refresh_steps;
    cache_cfg.staleness = cfg.cache_staleness;
    cache_cfg.chunk_bytes = cfg.chunk_bytes;
    for (int t = 0; t < tables; ++t) {
      // The replica optimizer spans the full dim (hot rows live full-width
      // on every rank) with the same kind/hyperparameters as the shard's —
      // the staleness-0 equivalence depends on that match.
      caches[static_cast<size_t>(t)] = std::make_unique<HotRowCache>(
          shards[static_cast<size_t>(t)].get(),
          sparse_opts[static_cast<size_t>(t)].get(),
          make_sparse_optim(cfg, cfg.vocab, cfg.dim), cache_cfg);
    }
    // The refresh-time cut pricing needs CostParams identical on every rank
    // WITHOUT a broadcast (refresh runs deep inside a comm op): use the
    // simnet defaults overridden by the explicit link knobs — a pure
    // function of cfg, unlike the measured-profile path the allgather
    // picker takes above.
    sparse::CostParams params = sparse::CostParams::from_simnet_defaults();
    if (cfg.link_alpha_us > 0.0) params.link.alpha_us = cfg.link_alpha_us;
    if (cfg.link_bytes_per_us > 0.0) {
      params.link.bytes_per_us = cfg.link_bytes_per_us;
    }
    cache_picker.emplace(sparse::AlgoMode::kAuto, params, cfg.chunk_bytes);
    if (dense_codec != nullptr) {
      cache_picker->set_codec_cost(
          comm::codec_wire_bytes_per_value(*dense_codec));
    }
  }
  auto head = nn::make_head(cfg.head, cfg.dim, cfg.hidden, cfg.classes,
                            head_rng);
  auto head_params = head->parameters();
  auto dense_opt = make_dense_optim(cfg, head_params);

  auto loader = data::make_corpus_loader(corpus_config(cfg), rank,
                                         cfg.batch_per_worker);

  std::vector<float> local_losses;
  try {
  for (int step = 0; step < cfg.steps; ++step) {
    obs::ScopedSpan step_span("step", "step", step);
    // Step-aligned phase accounting (DESIGN.md §11): kCommWait collects the
    // blocked-on-comm wall time across every wait site — the paper's
    // "computation stall" — and the other phases decompose the rest.
    obs::StepAccounting acc;
    auto timed_wait = [&](auto& handle_vec, const char* phase) {
      const auto w0 = std::chrono::steady_clock::now();
      for (auto& h : handle_vec) h.wait();
      const auto w1 = std::chrono::steady_clock::now();
      obs::emit_complete(phase, w0, w1, "step", step);
      acc.add(obs::Phase::kCommWait,
              std::chrono::duration<double, std::milli>(w1 - w0).count());
    };
    const data::Batch& cur = loader.current();
    const data::Batch& nxt = loader.next();
    const Segmented seg = segment_batch(cur, tables);
    const Segmented seg_next = segment_batch(nxt, tables);
    const auto targets = targets_of(cur, cfg.classes);

    // --- embedding forward ---
    const auto fp_emb_start = std::chrono::steady_clock::now();
    Tensor emb_out({cur.total_tokens(), cfg.dim});
    // Gathered current/next data per table (Algorithm 1's D_cur / D_next).
    std::vector<std::vector<std::vector<int64_t>>> all_cur(
        static_cast<size_t>(tables)),
        all_next(static_cast<size_t>(tables));
    if (is_hybrid(cfg.strategy)) {
      std::vector<sched::Handle> handles;
      {
        // Metadata exchange + op submission are comm *issue* work: the
        // lookup itself runs on the comm thread; this thread only blocks in
        // the timed_wait below (kCommWait).
        obs::PhaseScope issue(acc, obs::Phase::kCommIssue);
        for (int t = 0; t < tables; ++t) {
          all_cur[t] =
              PartitionedEmbedding::allgather_ids(main_ch, seg.ids[t]);
          all_next[t] =
              PartitionedEmbedding::allgather_ids(main_ch, seg_next.ids[t]);
        }
        // Each table's lookup AlltoAll runs as its own scheduled comm op
        // ("Emb Data"), ordered after the previous step's prior/delayed ops —
        // the dependency the paper's Figure 6(c) encodes.
        for (int t = 0; t < tables; ++t) {
          handles.push_back(scheduler.submit(
              make_desc(emb_op("embdata", step, t),
                        fifo ? fifo_priority() : Priorities::embdata(step, t),
                        static_cast<int64_t>(seg.ids[t].size()) * cfg.dim *
                            static_cast<int64_t>(sizeof(float)),
                        sched::OpKind::kEmbData),
              [&, t] {
                const EmbedExchange ex{.group = grp,
                                       .cache = caches[t].get()};
                Tensor rows = shards[t]->distributed_lookup(
                    comm_ch, all_cur[t], seg.ids[t], ex);
                scatter_rows(rows, seg.pos[t], emb_out);
              }));
        }
      }
      timed_wait(handles, "stall.embdata");
    } else if (uses_ps(cfg.strategy)) {
      obs::PhaseScope fwd(acc, obs::Phase::kForward);
      for (int t = 0; t < tables; ++t) {
        scatter_rows(shared.ps[t]->pull_rows(seg.ids[t]), seg.pos[t],
                     emb_out);
      }
    } else {
      obs::PhaseScope fwd(acc, obs::Phase::kForward);
      for (int t = 0; t < tables; ++t) {
        scatter_rows(replicas[t]->forward(seg.ids[t]), seg.pos[t], emb_out);
      }
    }

    obs::emit_complete("fp.embedding", fp_emb_start,
                       std::chrono::steady_clock::now(), "step", step);

    // --- dense forward + backward ---
    const auto fp_bp_start = std::chrono::steady_clock::now();
    head->zero_grad();
    Tensor d_emb;
    float local_loss;
    {
      // The head API fuses FP and BP into one call; the whole fused pass is
      // attributed to kBackward (BP dominates, and the split is invisible
      // from out here).
      obs::PhaseScope bp(acc, obs::Phase::kBackward);
      local_loss = head->forward_backward(
          emb_out, cur.batch_size(), cur.seq_len(), targets, &d_emb);
    }
    obs::emit_complete("fp_bp.dense", fp_bp_start,
                       std::chrono::steady_clock::now(), "step", step);

    // --- dense gradient communication (wait-free: submitted in
    // BP-emission order = reverse parameter order; optionally bucketed via
    // fusion_bytes and chunk-granular via chunk_bytes) ---
    const int64_t fusion_bytes = cfg.fusion_bytes;
    std::vector<sched::Handle> dense_handles;
    // Submits one dense transfer over `flat` (filled lazily by `prepare`
    // on the first quantum, finished by `finish` after the last). The
    // transfer is a ChunkedAllReduce cursor: with chunk_bytes > 0 each
    // quantum is its own negotiated slice, so higher-priority sparse ops
    // preempt it at chunk boundaries; with chunking off the whole ring is
    // one slice (one leader announcement). The result is bitwise-identical
    // either way. `ef_key` is the stable per-transfer id for error-feedback
    // residuals (parameter index or fusion-bucket index — the same buffer
    // must meet the same gradient next step, so it cannot be step-scoped).
    auto submit_dense = [&](std::string name, double priority, int64_t ef_key,
                            int64_t elems,
                            std::function<std::span<float>()> prepare,
                            std::function<void()> finish) {
      const int64_t bytes = elems * static_cast<int64_t>(sizeof(float));
      sched::OpDesc desc = make_desc(std::move(name), priority, bytes,
                                     sched::OpKind::kDense);
      // Fold error feedback into prepare: runs on the comm thread right
      // before the first wire quantum, after the gradient is final.
      if (dense_codec != nullptr && cfg.codec_error_feedback) {
        prepare = [&dense_ef, dense_codec, ef_key,
                   inner = std::move(prepare)]() {
          std::span<float> flat = inner();
          dense_ef.apply(ef_key, flat, *dense_codec);
          return flat;
        };
      }
      if (two_level_dense) {
        return scheduler.submit(
            std::move(desc), [grp, dense_codec, prepare = std::move(prepare),
                              finish = std::move(finish)] {
              comm::hierarchical_allreduce(*grp, prepare(),
                                           comm::ReduceOp::kSum, dense_codec);
              finish();
            });
      }
      const int64_t slices =
          cfg.chunk_bytes > 0
              ? comm::ChunkedAllReduce::num_quanta(elems, workers,
                                                   cfg.chunk_bytes)
              : 1;
      auto cursor = std::make_shared<std::optional<comm::ChunkedAllReduce>>();
      return scheduler.submit(
          std::move(desc), slices,
          [&comm_ch, cursor, slices, chunk_bytes = cfg.chunk_bytes,
           dense_codec, prepare = std::move(prepare),
           finish = std::move(finish)](int64_t i) {
            if (i == 0) {
              cursor->emplace(comm_ch, prepare(), chunk_bytes,
                              comm::ReduceOp::kSum, dense_codec);
            }
            if (i + 1 < slices) {
              (*cursor)->run_quantum(i);
              return;
            }
            // The final slice runs whatever remains: the whole ring when
            // chunking is off.
            (*cursor)->run_all();
            cursor->reset();
            finish();
          });
    };
    // Everything from here to the waits below is comm *issue* work:
    // gathering/splitting gradients and enqueueing ops. The transfers
    // themselves run on the comm thread.
    std::vector<sched::Handle> emb_handles;
    {
    obs::PhaseScope issue(acc, obs::Phase::kCommIssue);
    if (fusion_bytes > 0) {
      std::vector<Tensor*> grads;  // BP-emission (block) order
      std::vector<int64_t> grad_bytes;
      for (size_t i = head_params.size(); i-- > 0;) {
        grads.push_back(&head_params[i]->grad);
        grad_bytes.push_back(static_cast<int64_t>(
            head_params[i]->grad.flat().size() * sizeof(float)));
      }
      // Block ordering drives bucket assignment: buckets are contiguous
      // runs of the BP-ordered gradients, so each bucket becomes ready as
      // soon as its last (earliest-FP) member's gradient lands.
      const auto ranges = comm::plan_buckets(grad_bytes, fusion_bytes);
      auto groups = std::make_shared<std::vector<FusionGroup>>();
      for (const auto& [b, e] : ranges) {
        groups->emplace_back(std::vector<Tensor*>(
            grads.begin() + static_cast<std::ptrdiff_t>(b),
            grads.begin() + static_cast<std::ptrdiff_t>(e)));
      }
      for (size_t g = 0; g < groups->size(); ++g) {
        // Groups are in BP order; the last group holds the first FP
        // parameters, so it gets the most urgent dense priority.
        const size_t fp_index = groups->size() - 1 - g;
        auto flat = std::make_shared<std::vector<float>>();
        dense_handles.push_back(submit_dense(
            dense_op(step, g),
            fifo ? fifo_priority() : Priorities::dense(step, fp_index),
            static_cast<int64_t>(g),
            (*groups)[g].byte_size() / static_cast<int64_t>(sizeof(float)),
            [groups, g, flat]() -> std::span<float> {
              *flat = (*groups)[g].flatten();
              return *flat;
            },
            [groups, g, flat, inv_n] {
              for (float& v : *flat) v *= inv_n;
              (*groups)[g].unflatten(*flat);
            }));
      }
    } else {
      for (size_t i = head_params.size(); i-- > 0;) {
        nn::Parameter* p = head_params[i];
        dense_handles.push_back(submit_dense(
            dense_op(step, i),
            fifo ? fifo_priority() : Priorities::dense(step, i),
            static_cast<int64_t>(i),
            static_cast<int64_t>(p->grad.flat().size()),
            [p]() -> std::span<float> { return p->grad.flat(); },
            [p, inv_n] { p->grad.scale_(inv_n); }));
      }
    }

    // --- sparse gradient communication, one stream per table ---
    for (int t = 0; t < tables; ++t) {
      SparseRows my_grad(cfg.vocab, seg.ids[t],
                         gather_rows(d_emb, seg.pos[t]));
      my_grad.scale_(inv_n);
      const int64_t grad_bytes =
          static_cast<int64_t>(my_grad.packed_byte_size());
      switch (cfg.strategy) {
        case StrategyKind::kHorovodAllReduce: {
          emb_handles.push_back(scheduler.submit(
              make_desc(emb_op("embgrad", step, t), fifo_priority(),
                        my_grad.dense_byte_size(), sched::OpKind::kOther),
              [&, t, my_grad] {
                // Dense-format aggregation of the (sparse) gradient, with
                // the wire codec on the ring when one is configured (error
                // feedback first, on the sparse form).
                const comm::Codec* codec =
                    choose_table_codec(comm_ch, t, my_grad);
                SparseRows g = my_grad;
                apply_sparse_ef(t, g, codec);
                Tensor dense = g.to_dense();
                comm::allreduce_chunked(comm_ch, dense.flat(),
                                        cfg.chunk_bytes, comm::ReduceOp::kSum,
                                        codec);
                const auto rows = unique_sorted(flatten(
                    PartitionedEmbedding::allgather_ids(comm_ch,
                                                        seg.ids[t])));
                sparse_opts[t]->apply(replicas[t]->table(),
                                      SparseRows::gather(dense, rows),
                                      nn::SparseStep::kFull);
              }));
          break;
        }
        case StrategyKind::kHorovodAllGather: {
          emb_handles.push_back(scheduler.submit(
              make_desc(emb_op("embgrad", step, t), fifo_priority(),
                        grad_bytes, sched::OpKind::kOther),
              [&, t, my_grad] {
                // Rank-agreed decision inputs in ONE allreduce: per-rank
                // distinct-row density d_r (their mean prices per-rank
                // payloads), Σ log1p(−d_r) (the union density the merged
                // result actually occupies — feeding the mean alone
                // mispriced the dense-ring crossover by up to workers× for
                // disjoint hot sets), and the |grad| mass for the codec
                // policy. Every rank then makes the same (codec, format,
                // algorithm) decision.
                const double d = my_grad.row_density();
                float sum_abs = 0.0f;
                for (float v : my_grad.values().flat()) {
                  sum_abs += std::fabs(v);
                }
                std::vector<float> stats{
                    static_cast<float>(d),
                    static_cast<float>(std::log1p(-d)), sum_abs,
                    static_cast<float>(my_grad.values().flat().size())};
                comm_ch.allreduce(stats);
                const sparse::DensityEstimate est =
                    sparse::DensityEstimate::from_allreduced(
                        static_cast<double>(stats[0]),
                        static_cast<double>(stats[1]), workers);
                const comm::Codec* codec = nullptr;
                if (codec_policy.has_value()) {
                  const double mean_abs =
                      stats[3] > 0.0f ? static_cast<double>(stats[2]) /
                                            static_cast<double>(stats[3])
                                      : 0.0;
                  codec = codec_policy->choose(t, mean_abs);
                  algo_picker->set_codec_cost(
                      codec != nullptr
                          ? comm::codec_wire_bytes_per_value(*codec)
                          : 4.0);
                }
                const sparse::AlgoChoice choice = algo_picker->choose(
                    est, cfg.vocab, cfg.dim, workers);
                SparseRows g = my_grad;
                apply_sparse_ef(t, g, codec);
                SparseRows total =
                    grp != nullptr
                        ? comm::sparse_allreduce(*grp, g, choice.algo,
                                                 choice.chunk_bytes, codec)
                        : comm::sparse_allreduce(comm_ch, g, choice.algo,
                                                 choice.chunk_bytes, codec);
                sparse::AlgoPicker::record(
                    choice, static_cast<int64_t>(g.packed_byte_size()));
                sparse_opts[t]->apply(replicas[t]->table(), total.coalesced(),
                                      nn::SparseStep::kFull);
              }));
          break;
        }
        case StrategyKind::kParallaxPs: {
          emb_handles.push_back(scheduler.submit(
              make_desc(emb_op("embgrad", step, t), fifo_priority(),
                        grad_bytes, sched::OpKind::kOther),
              [&, t, my_grad] { shared.ps[t]->push_sparse(my_grad); }));
          break;
        }
        case StrategyKind::kBytePsDense: {
          // ByteScheduler priority: the embedding is what the next FP needs
          // first, so its (dense-format) push jumps the dense-block queue.
          emb_handles.push_back(scheduler.submit(
              make_desc(emb_op("embgrad", step, t),
                        Priorities::prior(step, t), my_grad.dense_byte_size(),
                        sched::OpKind::kSparsePrior),
              [&, t, my_grad] {
                shared.ps[t]->push_dense(my_grad.to_dense());
              }));
          break;
        }
        case StrategyKind::kEmbRaceNoVss: {
          // Codec choice + error feedback happen here on the main thread
          // (adaptive mode allreduces the |grad| mass on main_ch, like the
          // id exchange above); the wire work runs on the comm thread.
          const comm::Codec* codec = choose_table_codec(main_ch, t, my_grad);
          apply_sparse_ef(t, my_grad, codec);
          emb_handles.push_back(scheduler.submit(
              make_desc(emb_op("embgrad", step, t), fifo_priority(),
                        grad_bytes, sched::OpKind::kOther),
              [&, t, my_grad, codec] {
                // No VSS -> no coalescing pass: the uncoalesced gradient
                // goes on the wire; the shard coalesces before applying.
                const EmbedExchange ex{.group = grp, .codec = codec,
                                       .cache = caches[t].get()};
                SparseRows g = shards[t]->exchange_grad(comm_ch, my_grad, ex);
                sparse_opts[t]->apply(shards[t]->shard(), g,
                                      nn::SparseStep::kFull);
              }));
          break;
        }
        case StrategyKind::kEmbRace: {
          // Error feedback is applied to the WHOLE gradient before
          // Algorithm 1's vertical split: the residual row-aligns with the
          // coalesced gradient, and both the prior and delayed parts then
          // carry already-projected values (re-encoding a projected payload
          // on the wire is idempotent, so the split adds no extra error and
          // the modified-Adam prior/delayed sequencing is untouched).
          const comm::Codec* codec = choose_table_codec(main_ch, t, my_grad);
          apply_sparse_ef(t, my_grad, codec);
          // Algorithm 1 on the GPU-idle window after BP, per table.
          auto split = sched::vertical_sparse_schedule(
              my_grad, seg.ids[t], flatten(all_next[t]));
          const int64_t prior_bytes =
              static_cast<int64_t>(split.prior.packed_byte_size());
          const int64_t delayed_bytes =
              static_cast<int64_t>(split.delayed.packed_byte_size());
          emb_handles.push_back(scheduler.submit(
              make_desc(emb_op("prior", step, t), Priorities::prior(step, t),
                        prior_bytes, sched::OpKind::kSparsePrior),
              [&, t, codec, prior = std::move(split.prior)] {
                const EmbedExchange ex{.group = grp, .codec = codec,
                                       .cache = caches[t].get()};
                SparseRows g = shards[t]->exchange_grad(comm_ch, prior, ex);
                sparse_opts[t]->apply(shards[t]->shard(), g,
                                      nn::SparseStep::kPrior);
              }));
          // The delayed part fills the queue's tail; its step-scoped
          // priority keeps it ahead of the next step's ops (the modified
          // Adam requires delayed(s) to land before prior(s+1)).
          scheduler.submit(
              make_desc(emb_op("delayed", step, t),
                        Priorities::delayed(step, t), delayed_bytes,
                        sched::OpKind::kSparseDelayed),
              [&, t, codec, delayed = std::move(split.delayed)] {
                const EmbedExchange ex{.group = grp, .codec = codec,
                                       .cache = caches[t].get()};
                SparseRows g = shards[t]->exchange_grad(comm_ch, delayed, ex);
                sparse_opts[t]->apply(shards[t]->shard(), g,
                                      nn::SparseStep::kDelayed);
              });
          break;
        }
      }
    }

    // --- hot-row cache sync/refresh, one op per cached table ---
    // Submitted last so FIFO strategies run it after the step's gradient
    // exchanges; the priority strategies get the same guarantee from
    // Priorities::hotsync. The handle is deliberately dropped, like the
    // delayed op's: the scheduler's rank-agreed order already places
    // hotsync(s) before every op of step s+1, and shutdown drains the tail.
    for (int t = 0; t < tables; ++t) {
      if (caches[static_cast<size_t>(t)] == nullptr) continue;
      // Bytes are the budget-rows ceiling, not hot_count(): cache state
      // belongs to the comm thread, and the previous step's hotsync may
      // still be mutating it while this thread submits.
      scheduler.submit(
          make_desc(emb_op("hotsync", step, t),
                    fifo ? fifo_priority() : Priorities::hotsync(step, t),
                    cache_budget * cfg.dim *
                        static_cast<int64_t>(sizeof(float)),
                    sched::OpKind::kOther),
          [&, t] {
            caches[t]->step_end(
                comm_ch, dense_codec,
                cache_picker.has_value() ? &*cache_picker : nullptr);
          });
    }

    }  // end comm-issue scope

    // --- finish the step ---
    timed_wait(dense_handles, "stall.dense");
    {
      obs::PhaseScope opt(acc, obs::Phase::kOptimizer);
      dense_opt->step();
    }
    timed_wait(emb_handles, "stall.sparse");
    stall_hist.observe(acc.phase_ms(obs::Phase::kCommWait));
    steps_done.increment();
    {
      // The loss allreduce blocks on every peer reaching the same point —
      // comm wait, same as the handle waits.
      obs::PhaseScope wait(acc, obs::Phase::kCommWait);
      local_losses.push_back(global_mean_loss(main_ch, local_loss, workers));
    }
    loader.advance();

    if (cfg.perf_profile) {
      // Cross-rank exchange (DESIGN.md §11): every rank contributes its
      // finished profile to a fixed-size allgather on the perf channel, so
      // every rank sees the full row for this step. Runs after finish() —
      // the exchange itself is observatory overhead, charged to no phase.
      const obs::StepProfile mine = acc.finish(rank, step);
      float block[obs::StepProfile::kFloats];
      mine.to_floats(block);
      const std::vector<float> all = perf_ch.allgather(block);
      std::vector<obs::StepProfile> row;
      row.reserve(static_cast<size_t>(workers));
      for (int r = 0; r < workers; ++r) {
        row.push_back(obs::StepProfile::from_floats(
            r, step,
            std::span<const float>(all).subspan(
                static_cast<size_t>(r) * obs::StepProfile::kFloats,
                obs::StepProfile::kFloats)));
      }
      if (rank == 0) {
        double min_wall = row[0].wall_ms, max_wall = row[0].wall_ms;
        for (const auto& p : row) {
          min_wall = std::min(min_wall, p.wall_ms);
          max_wall = std::max(max_wall, p.wall_ms);
        }
        static obs::Histogram& skew_hist = obs::histogram(
            "trainer.step_skew_ms", obs::default_latency_edges_ms());
        skew_hist.observe(max_wall - min_wall);
        std::lock_guard<std::mutex> lock(shared.result_mutex);
        shared.step_profiles.insert(shared.step_profiles.end(), row.begin(),
                                    row.end());
      }
    }
  }
  } catch (...) {
    // Failure path (DESIGN.md §8): a collective timed out or an op body
    // threw. Tear down the local scheduler without negotiating with
    // (possibly dead) peers, then attempt a bounded rendezvous so surviving
    // ranks leave together instead of wedging in half-finished collectives.
    // The barrier is only attempted when a recv deadline is armed — without
    // one it could hang exactly like the collective that failed.
    static obs::Counter& aborts = obs::counter("trainer.aborts");
    aborts.increment();
    obs::emit_instant("trainer.abort", "rank", rank);
    scheduler.abort();
    if (comm.fabric().recv_timeout().count() > 0) {
      try {
        comm.channel(kAbortChannel).barrier();
      } catch (...) {
        // Peers may be dead; run_cluster's join is the real sync point.
      }
    }
    throw;  // run_cluster rethrows the first (lowest-rank) error
  }

  scheduler.shutdown();
  if (rank == 0) {
    std::lock_guard<std::mutex> lock(shared.result_mutex);
    shared.losses = std::move(local_losses);
    shared.comm_log = scheduler.records();
  }
}

}  // namespace

const char* strategy_kind_name(StrategyKind s) {
  switch (s) {
    case StrategyKind::kHorovodAllReduce: return "horovod-allreduce";
    case StrategyKind::kHorovodAllGather: return "horovod-allgather";
    case StrategyKind::kBytePsDense: return "byteps-dense";
    case StrategyKind::kParallaxPs: return "parallax-ps";
    case StrategyKind::kEmbRaceNoVss: return "embrace-novss";
    case StrategyKind::kEmbRace: return "embrace";
  }
  return "?";
}

TrainStats run_distributed(const TrainConfig& cfg, int workers) {
  if (auto errors = cfg.validate(workers); !errors.empty()) {
    throw ConfigValidationError(std::move(errors));
  }
  SharedState shared;
  if (cfg.strategy == StrategyKind::kParallaxPs ||
      cfg.strategy == StrategyKind::kBytePsDense) {
    Rng emb_rng(cfg.seed);
    // Server-side SGD must apply the same averaged gradient: workers push
    // grads already scaled by 1/N, so the server lr equals cfg.lr.
    for (int t = 0; t < cfg.num_tables; ++t) {
      Rng table_rng = emb_rng.split(static_cast<uint64_t>(t));
      Tensor init = nn::Embedding(cfg.vocab, cfg.dim, table_rng).table();
      shared.ps.push_back(std::make_unique<comm::ShardedParameterServer>(
          init, std::max(1, workers / 2), workers, cfg.lr));
    }
  }

  comm::Fabric fabric(workers);
  comm::FaultConfig faults;
  faults.drop_prob = cfg.fault_drop_prob;
  faults.dup_prob = cfg.fault_dup_prob;
  faults.reorder_prob = cfg.fault_reorder_prob;
  faults.delay_max_us = std::max(cfg.fault_delay_max_us, cfg.fabric_jitter_us);
  faults.recoverable = cfg.fault_recoverable;
  if (faults.any()) {
    fabric.set_fault_config(faults, cfg.seed);
  }
  if (cfg.recv_timeout_ms > 0) {
    fabric.set_recv_timeout(
        std::chrono::milliseconds(static_cast<int64_t>(cfg.recv_timeout_ms)));
  }
  if (cfg.link_alpha_us > 0.0 || cfg.link_bytes_per_us > 0.0) {
    comm::LinkCost cost;
    cost.alpha_us = cfg.link_alpha_us;
    cost.bytes_per_us = cfg.link_bytes_per_us;
    fabric.set_uniform_link_cost(cost);
  }
  if (cfg.topo_nodes > 0) {
    // Cluster topology (DESIGN.md §13): block node map plus per-tier link
    // costs. The link_* knobs above price the inter-node tier; same-node
    // deliveries pay the (cheaper) link_intra_* cost. Overrides the uniform
    // table, which is why it is applied last.
    simnet::ClusterTopology topo;
    topo.nodes = cfg.topo_nodes;
    topo.gpus_per_node = cfg.topo_gpus_per_node;
    comm::LinkCost inter;
    inter.alpha_us = cfg.link_alpha_us;
    inter.bytes_per_us = cfg.link_bytes_per_us;
    comm::LinkCost intra;
    intra.alpha_us = cfg.link_intra_alpha_us;
    intra.bytes_per_us = cfg.link_intra_bytes_per_us;
    fabric.set_topology(topo, intra, inter);
  }
  Stopwatch wall;
  comm::run_cluster(fabric, [&](comm::Communicator& comm) {
    worker_main(cfg, workers, shared, comm);
  });

  TrainStats stats;
  stats.wall_seconds = wall.seconds();
  stats.losses = std::move(shared.losses);
  stats.comm_log = std::move(shared.comm_log);
  stats.step_profiles = std::move(shared.step_profiles);
  const auto total = fabric.total_traffic();
  stats.fabric_bytes = total.bytes;
  stats.fabric_messages = total.messages;
  for (const auto& ps : shared.ps) {
    stats.ps_bytes += ps->pull_bytes() + ps->push_bytes();
  }
  for (const auto& rec : stats.comm_log) {
    stats.comm_busy_seconds += rec.end - rec.start;
  }
  return stats;
}

TrainStats run_oracle(const TrainConfig& cfg, int workers) {
  if (auto errors = cfg.validate(workers); !errors.empty()) {
    throw ConfigValidationError(std::move(errors));
  }
  const int tables = cfg.num_tables;
  const float inv_n = 1.0f / static_cast<float>(workers);
  Rng emb_rng(cfg.seed);
  Rng head_rng(cfg.seed + 1);
  std::vector<std::unique_ptr<nn::Embedding>> embs;
  std::vector<std::unique_ptr<nn::SparseOptimizer>> sparse_opts;
  for (int t = 0; t < tables; ++t) {
    Rng table_rng = emb_rng.split(static_cast<uint64_t>(t));
    embs.push_back(
        std::make_unique<nn::Embedding>(cfg.vocab, cfg.dim, table_rng));
    sparse_opts.push_back(make_sparse_optim(cfg, cfg.vocab, cfg.dim));
  }
  auto head = nn::make_head(cfg.head, cfg.dim, cfg.hidden, cfg.classes,
                            head_rng);
  auto dense_opt = make_dense_optim(cfg, head->parameters());

  std::vector<data::PrefetchingLoader> loaders;
  for (int w = 0; w < workers; ++w) {
    loaders.push_back(data::make_corpus_loader(corpus_config(cfg), w,
                                               cfg.batch_per_worker));
  }

  TrainStats stats;
  for (int step = 0; step < cfg.steps; ++step) {
    head->zero_grad();
    std::vector<SparseRows> grad_sums;
    for (int t = 0; t < tables; ++t) {
      grad_sums.push_back(SparseRows::empty(cfg.vocab, cfg.dim));
    }
    float loss_sum = 0.0f;
    for (int w = 0; w < workers; ++w) {
      const data::Batch& cur = loaders[static_cast<size_t>(w)].current();
      const Segmented seg = segment_batch(cur, tables);
      Tensor emb_out({cur.total_tokens(), cfg.dim});
      for (int t = 0; t < tables; ++t) {
        scatter_rows(embs[t]->forward(seg.ids[t]), seg.pos[t], emb_out);
      }
      Tensor d_emb;
      loss_sum += head->forward_backward(emb_out, cur.batch_size(),
                                         cur.seq_len(),
                                         targets_of(cur, cfg.classes),
                                         &d_emb);
      for (int t = 0; t < tables; ++t) {
        grad_sums[t] = SparseRows::concat(
            grad_sums[t],
            SparseRows(cfg.vocab, seg.ids[t], gather_rows(d_emb, seg.pos[t])));
      }
      loaders[static_cast<size_t>(w)].advance();
    }
    for (nn::Parameter* p : head->parameters()) p->grad.scale_(inv_n);
    dense_opt->step();
    for (int t = 0; t < tables; ++t) {
      grad_sums[t].scale_(inv_n);
      sparse_opts[t]->apply(embs[t]->table(), grad_sums[t].coalesced(),
                            nn::SparseStep::kFull);
    }
    stats.losses.push_back(loss_sum * inv_n);
  }
  return stats;
}

}  // namespace embrace::core
