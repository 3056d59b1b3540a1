// Functional distributed trainer: real worker threads, real tensors, real
// collectives. One step loop (worker_main) runs every strategy of
// strategy.h over the in-process cluster runtime; how the embedding
// lookups and gradients travel is the strategy's EmbeddingSync
// (embedding_sync.h). EmbRace's hybrid communication and 2D scheduling
// follow the paper (§4, §5.1):
//   * column-partitioned embeddings with two AlltoAll passes per step (the
//     lookup one also carries the previous step's delayed gradient),
//   * a negotiated priority queue + communication thread,
//   * Algorithm 1's prior/delayed gradient split with the modified Adam.
//
// Synchronous-training contract: every strategy applies, per step, the
// average of all workers' gradients — so all six produce (up to float
// summation order) identical loss curves, which equivalence tests pin
// against the single-process oracle.
#include "embrace/strategy.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "comm/chunked_collectives.h"
#include "comm/codec.h"
#include "comm/cluster.h"
#include "comm/comm_group.h"
#include "comm/hierarchical_collectives.h"
#include "simnet/topology.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "common/stopwatch.h"
#include "comm/param_server.h"
#include "common/error.h"
#include "data/loader.h"
#include "embrace/embedding_sync.h"
#include "nn/embedding.h"
#include "nn/optim.h"
#include "sched/negotiated_scheduler.h"
#include "tensor/fusion.h"

namespace embrace::core {
namespace {

// Channel layout on the shared fabric.
constexpr int kControlChannel = 0;  // scheduler negotiation
constexpr int kCommChannel = 1;     // collectives run by the comm thread
constexpr int kMainChannel = 2;     // inline metadata from the main thread
constexpr int kAbortChannel = 3;    // best-effort rendezvous on failure
constexpr int kPerfChannel = 4;     // per-step StepProfile exchange

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

// Per-step dense op name (unique across steps for the scheduler's backlog).
std::string dense_op(int step) { return "dense/s" + std::to_string(step); }

// Splits every sentence of `batch` into the per-table column segments.
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

struct SharedState {
  // PS strategies only: one sharded PS per embedding table.
  std::vector<std::unique_ptr<comm::ShardedParameterServer>> ps;
  std::mutex result_mutex;
  std::vector<float> losses;
  std::vector<sched::ExecRecord> comm_log;
  // Full rank × step phase matrix (perf_profile runs only; rank 0 writes).
  std::vector<obs::StepProfile> step_profiles;
};

// ---------------------------------------------------------------------------
// The per-rank training function: the step loop every strategy shares.
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

  comm::Communicator comm_ch = comm.channel(kCommChannel);
  comm::Communicator main_ch = comm.channel(kMainChannel);
  comm::Communicator perf_ch = comm.channel(kPerfChannel);
  // CommGroup tree over the comm channel (DESIGN.md §13), built before any
  // op is submitted: the splits are main-thread collectives on comm_ch, and
  // the comm thread only touches comm_ch through ops submitted later. The
  // node/leader sub-communicators are used exclusively from the comm
  // thread afterwards.
  std::optional<comm::CommGroup> comm_group;
  if (workers > 1 && comm.fabric().has_topology()) {
    comm_group.emplace(comm::build_comm_group(comm_ch));
  }
  comm::CommGroup* grp = comm_group.has_value() ? &*comm_group : nullptr;
  sched::NegotiatedScheduler scheduler(comm.channel(kControlChannel));
  SyncContext ctx{.cfg = cfg,
                  .rank = rank,
                  .workers = workers,
                  .scheduler = scheduler,
                  .comm_ch = comm_ch,
                  .main_ch = main_ch,
                  .grp = grp,
                  .ps = shared.ps};
  // Embedding tables (identical initialization on every rank) and how
  // their lookups and gradients travel.
  const std::unique_ptr<EmbeddingSync> sync = make_embedding_sync(cfg, ctx);
  const comm::Codec* dense_codec = ctx.dense_codec.get();

  const int tables = cfg.num_tables;
  Rng head_rng(cfg.seed + 1);
  auto head = nn::make_head(cfg.head, cfg.dim, cfg.hidden, cfg.classes,
                            head_rng);
  auto head_params = head->parameters();
  auto dense_opt = make_dense_optim(cfg, head_params);
  // The fused dense-gradient buffer, in BP-emission (reverse parameter)
  // order, and the comm-thread state of its one op per step. The main
  // thread waits on that op before touching the gradients again, so one
  // buffer and error-feedback residual (DESIGN.md §14) serve every step.
  std::vector<Tensor*> bp_grads;
  for (size_t i = head_params.size(); i-- > 0;) {
    bp_grads.push_back(&head_params[i]->grad);
  }
  FusionGroup dense_grads(std::move(bp_grads));
  std::vector<float> dense_flat;
  std::vector<float> dense_residual;

  auto loader = data::make_corpus_loader(corpus_config(cfg), rank,
                                         cfg.batch_per_worker);

  std::vector<float> local_losses;
  std::vector<float> mean_losses;  // rank 0: the global mean of every step
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
    {
      // A lookup that returns handles runs on the comm thread: this thread
      // only issued it (metadata exchange + op submission) and blocks in
      // the timed_wait below. A local lookup is forward work.
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<sched::Handle> handles =
          sync->lookup(step, seg, seg_next, emb_out);
      acc.add(handles.empty() ? obs::Phase::kForward : obs::Phase::kCommIssue,
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
      if (!handles.empty()) timed_wait(handles, "stall.embdata");
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

    // --- gradient communication: one op group per step ---
    std::vector<sched::Handle> dense_handles;
    std::vector<sched::Handle> emb_handles;
    {
    // Everything from here to the waits below is comm *issue* work:
    // gathering/splitting gradients and enqueueing ops. The transfers
    // themselves run on the comm thread.
    obs::PhaseScope issue(acc, obs::Phase::kCommIssue);
    // The step's gradient ops (dense, the embedding exchange and the
    // trailing ops) are one op group (DESIGN.md §10): the leader announces
    // them once, or replays them without a message once the step's units
    // repeat, and every rank runs them back to back in priority order.
    // So EmbRace's prior and BytePS's push run before dense, and EmbRace's
    // standalone delayed op (last step, or hot-row cache on) and the hot-row
    // sync after it, whatever the submission order.
    sched::NegotiatedScheduler::Group grad_ops = scheduler.open_group();
    // The head's FP and BP are one call, so every head gradient is final
    // at once: they travel as one fusion buffer (Horovod's tensor fusion).
    // The op flattens it and folds in error feedback on the comm thread,
    // runs the two-level AllReduce when a CommGroup exists (which falls back
    // to the flat ring without a two-level topology) or the flat ring,
    // scales by 1/N and unflattens. chunk_bytes splits the wire messages
    // only; the result is bitwise-identical either way.
    dense_handles.push_back(scheduler.submit(
        {.name = dense_op(step),
         .priority = ctx.prio(Priorities::dense(step)),
         .bytes = dense_grads.byte_size(),
         .kind = sched::OpKind::kDense},
        [&comm_ch, &dense_grads, &dense_flat, &dense_residual, grp,
         dense_codec, chunk_bytes = cfg.chunk_bytes, inv_n] {
          dense_flat = dense_grads.flatten();
          if (dense_codec != nullptr && !dense_codec->lossless()) {
            // Zeroed on first use; the buffer's size never changes.
            dense_residual.resize(dense_flat.size());
            comm::codec_error_feedback(*dense_codec, dense_flat,
                                       dense_residual);
          }
          if (grp != nullptr) {
            comm::hierarchical_allreduce(*grp, dense_flat,
                                         comm::ReduceOp::kSum, dense_codec,
                                         chunk_bytes);
          } else {
            comm::allreduce_chunked(comm_ch, dense_flat, chunk_bytes,
                                    comm::ReduceOp::kSum, dense_codec);
          }
          for (float& v : dense_flat) v *= inv_n;
          dense_grads.unflatten(dense_flat);
        }));

    // --- sparse gradient communication, every table in one call ---
    std::vector<SparseRows> emb_grads;
    emb_grads.reserve(static_cast<size_t>(tables));
    for (int t = 0; t < tables; ++t) {
      emb_grads.emplace_back(cfg.vocab, seg.ids[t],
                             gather_rows(d_emb, seg.pos[t]));
      emb_grads.back().scale_(inv_n);
    }
    sync->exchange_grad(step, std::move(emb_grads), emb_handles);
    sync->step_end(step);
    grad_ops.close();
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
    local_losses.push_back(local_loss);
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
  // Every step's global mean loss from ONE allgather after the loop, not a
  // ring allreduce per step: nothing reads the losses before the run ends.
  // Rank r's losses are block r; the left fold over ranks 0..N-1 is the
  // sum order a one-element ring allreduce produces, so the means are
  // bitwise those of a per-step allreduce.
  const std::vector<float> all_losses = main_ch.allgather(local_losses);
  if (rank == 0) {
    const size_t steps = local_losses.size();
    for (size_t s = 0; s < steps; ++s) {
      float sum = all_losses[s];
      for (int r = 1; r < workers; ++r) {
        sum += all_losses[static_cast<size_t>(r) * steps + s];
      }
      mean_losses.push_back(sum / static_cast<float>(workers));
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
    shared.losses = std::move(mean_losses);
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
  shared.ps = make_param_servers(cfg, workers);

  comm::Fabric fabric(workers);
  comm::FaultConfig faults;
  faults.drop_prob = cfg.fault_drop_prob;
  faults.dup_prob = cfg.fault_dup_prob;
  faults.reorder_prob = cfg.fault_reorder_prob;
  faults.delay_max_us = cfg.fault_delay_max_us;
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
