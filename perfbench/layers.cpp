#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "comm/sparse_collectives.h"
#include "common/rng.h"
#include "embrace/partitioned_embedding.h"
#include "nn/embedding.h"
#include "nn/heads.h"
#include "nn/optim.h"
#include "sched/negotiated_scheduler.h"
#include "tensor/sparse_rows.h"

namespace perfbench {

using embrace::Rng;
using embrace::SparseRows;
using embrace::Tensor;
using embrace::comm::Bytes;
using embrace::comm::Communicator;
using embrace::comm::Fabric;
using embrace::comm::LinkCost;
using embrace::core::TrainConfig;

namespace {

// Channel layout inside a suite's cluster: barriers on the world channel,
// payloads on their own channel, scheduler negotiation on a third.
constexpr int kDataChannel = 1;
constexpr int kSchedChannel = 2;

// The `_wan` variants run on the wan-small link: 50 µs, 10 Gbps.
const LinkCost kWanLink{50.0, 1250.0};

LinkCost link_of(const TrainConfig& cfg) {
  return LinkCost{cfg.link_alpha_us, cfg.link_bytes_per_us};
}

void set_link(Fabric& fabric, const LinkCost& link) {
  if (link.any()) fabric.set_uniform_link_cost(link);
}

// Everything rank 0 of a fabric suite measured.
struct FabricSamples {
  std::vector<double> hop_us;  // 64 B one-way (half a round trip)
  std::vector<double> fit_bytes, fit_us;
  std::vector<double> op_us, slice_us;
};

struct FabricPlan {
  int hop_iters = 0;
  bool fit = false;
  int op_iters = 0;  // 0 = no scheduler timing
};

// Ping-pong between ranks 0 and 1 and empty ops through
// NegotiatedScheduler, all inside one 4-rank cluster over `link`.
FabricSamples fabric_suite(const LinkCost& link, const FabricPlan& plan,
                           Report& report) {
  constexpr int kSlices = 16;
  constexpr int kSliceIters = 40;
  FabricSamples out;
  std::atomic<int> bad{0};
  int64_t records = 0;
  Fabric fabric(kWorkers);
  set_link(fabric, link);
  embrace::comm::run_cluster(fabric, [&](Communicator& c) {
    Communicator data = c.channel(kDataChannel);
    const bool lead = c.rank() == 0;
    auto pingpong = [&](size_t bytes) {
      return [&data, &bad, bytes](int) {
        if (data.rank() == 0) {
          data.send_bytes(1, data.pool().acquire(bytes));
          Bytes back = data.recv_bytes(1);
          if (back.size() != bytes) ++bad;
          data.pool().release(std::move(back));
        } else if (data.rank() == 1) {
          data.send_bytes(0, data.recv_bytes(0));
        }
      };
    };
    for (double us : timed_loop(c, plan.hop_iters, pingpong(64))) {
      if (lead) out.hop_us.push_back(us / 2);
    }
    if (plan.fit) {
      for (size_t bytes = 64; bytes <= (size_t{1} << 20); bytes *= 4) {
        const int iters = bytes <= (size_t{1} << 14) ? 40 : 20;
        for (double us : timed_loop(c, iters, pingpong(bytes))) {
          if (!lead) continue;
          out.fit_bytes.push_back(static_cast<double>(bytes));
          out.fit_us.push_back(us / 2);
        }
      }
    }
    if (plan.op_iters == 0) return;
    embrace::sched::NegotiatedScheduler sch(c.channel(kSchedChannel));
    auto desc = [](const char* kind, int i) {
      embrace::sched::OpDesc d;
      d.name = std::string(kind) + "/" + std::to_string(i);
      d.priority = i;
      return d;
    };
    auto ops = timed_loop(c, plan.op_iters, [&](int i) {
      sch.submit(desc("op", i), [] {}).wait();
    });
    auto slices = timed_loop(c, kSliceIters, [&](int i) {
      sch.submit(desc("sliced", plan.op_iters + i), kSlices, [](int64_t) {})
          .wait();
    });
    sch.shutdown();
    if (lead) {
      out.op_us = std::move(ops);
      for (double us : slices) out.slice_us.push_back(us / kSlices);
      records = static_cast<int64_t>(sch.records().size());
    }
  });
  report.check(bad == 0, "ping-pong echoes every byte");
  report.check(plan.op_iters == 0 || records == plan.op_iters + kSliceIters,
               "scheduler logs one record per op");
  return out;
}

// One collective payload geometry: a dense gradient, one rank's token ids
// and the per-destination lookup slice, from a workload's real batches.
struct Geometry {
  TrainConfig cfg;
  int64_t ids = 0;  // one rank's ids for one table
  int64_t dense_floats() const { return cfg.vocab * cfg.dim; }
  int64_t lookup_bytes() const {
    return ids * (cfg.dim / kWorkers) * static_cast<int64_t>(sizeof(float));
  }
};

Geometry geometry_of(const std::string& workload, uint64_t seed) {
  Geometry g;
  g.cfg = make_workload(workload, seed).cfg;
  g.ids = std::lround(ids_per_table(g.cfg));
  return g;
}

SparseRows rank_grad(const Geometry& g, int rank) {
  Rng rng(g.cfg.seed + 17 + static_cast<uint64_t>(rank));
  return SparseRows(g.cfg.vocab, sample_ids(g.cfg, rank, g.ids),
                    Tensor::randn({g.ids, g.cfg.dim}, rng));
}

// Collectives at the wan-small (".small") and wan-wide (".large") payloads,
// over the workload's link, in one cluster; also the buffer-pool hit ratio.
void collectives_suite(const Workload& w, Report& report) {
  const std::vector<std::pair<std::string, Geometry>> sizes{
      {"small", geometry_of("wan-small", w.cfg.seed)},
      {"large", geometry_of("wan-wide", w.cfg.seed)}};
  std::vector<std::vector<SparseRows>> grads;  // [size][rank]
  for (const auto& [label, g] : sizes) {
    grads.emplace_back();
    for (int r = 0; r < kWorkers; ++r) grads.back().push_back(rank_grad(g, r));
  }
  std::vector<std::pair<std::string, std::vector<double>>> results;
  std::atomic<int> bad{0};
  Fabric fabric(kWorkers);
  set_link(fabric, link_of(w.cfg));
  embrace::comm::run_cluster(fabric, [&](Communicator& c) {
    Communicator data = c.channel(kDataChannel);
    const int me = c.rank();
    const float expect = kWorkers * (kWorkers + 1) / 2.0f;
    auto keep = [&](const std::string& name, std::vector<double> us) {
      if (me == 0) results.emplace_back(name, std::move(us));
    };
    for (size_t k = 0; k < sizes.size(); ++k) {
      const auto& [label, g] = sizes[k];
      const bool large = label == "large";
      const int iters = large ? 40 : 100;
      const size_t n = static_cast<size_t>(g.dense_floats());
      std::vector<float> buf(n);
      auto sum_ok = [&] {
        return buf.front() == expect && buf.back() == expect;
      };
      keep("comm.allreduce_us." + label, timed_loop(c, iters, [&](int) {
             std::fill(buf.begin(), buf.end(), static_cast<float>(me + 1));
             data.allreduce(buf);
           }));
      if (!sum_ok()) ++bad;
      if (large) {
        keep("comm.chunked_allreduce_us.large",
             timed_loop(c, iters, [&](int) {
               std::fill(buf.begin(), buf.end(), static_cast<float>(me + 1));
               embrace::comm::allreduce_chunked(data, buf, 64 << 10);
             }));
        if (!sum_ok()) ++bad;
      }
      const size_t id_bytes = static_cast<size_t>(g.ids) * sizeof(int64_t);
      std::vector<Bytes> gathered;
      keep("comm.allgatherv_us." + label, timed_loop(c, iters, [&](int) {
             Bytes mine = data.pool().acquire(id_bytes);
             mine[0] = static_cast<std::byte>(me);
             gathered = data.allgatherv(mine);
             data.pool().release(std::move(mine));
           }));
      for (int r = 0; r < kWorkers; ++r) {
        const Bytes& b = gathered[static_cast<size_t>(r)];
        if (b.size() != id_bytes || b[0] != static_cast<std::byte>(r)) ++bad;
      }
      const size_t slice = static_cast<size_t>(g.lookup_bytes());
      std::vector<Bytes> got;
      keep("comm.alltoallv_us." + label, timed_loop(c, iters, [&](int) {
             for (auto& b : got) data.pool().release(std::move(b));
             std::vector<Bytes> send(kWorkers);
             for (int r = 0; r < kWorkers; ++r) {
               send[static_cast<size_t>(r)] = data.pool().acquire(slice);
               send[static_cast<size_t>(r)][0] =
                   static_cast<std::byte>(me * kWorkers + r);
             }
             got = data.alltoallv(std::move(send));
           }));
      for (int r = 0; r < kWorkers; ++r) {
        const Bytes& b = got[static_cast<size_t>(r)];
        if (b.size() != slice ||
            b[0] != static_cast<std::byte>(r * kWorkers + me)) {
          ++bad;
        }
      }
      const SparseRows& mine = grads[k][static_cast<size_t>(me)];
      SparseRows all;
      keep("comm.sparse_allgather_us." + label, timed_loop(c, iters, [&](int) {
             all = embrace::comm::sparse_allgather(data, mine);
           }));
      if (all.nnz_rows() != g.ids * kWorkers) ++bad;
    }
  });
  for (const auto& [name, us] : results) report.timing(name, us, "us");
  report.check(bad == 0, "collectives return the expected payloads");
  int64_t hits = 0, acquires = 0;
  for (int r = 0; r < kWorkers; ++r) {
    const auto s = fabric.pool(r).stats();
    hits += s.hits;
    acquires += s.hits + s.misses;
  }
  report.set("comm.pool.hit_ratio",
             acquires > 0 ? static_cast<double>(hits) / acquires : 0.0,
             "ratio");
}

// PartitionedEmbedding lookup and gradient exchange over the workload's
// link, at its geometry, checked against a replicated table.
void embrace_suite(const Workload& w, Report& report) {
  const Geometry g = geometry_of(w.name, w.cfg.seed);
  constexpr int kIters = 60;
  std::vector<double> lookup_us, grad_us;
  std::atomic<int> bad{0};
  Fabric fabric(kWorkers);
  set_link(fabric, link_of(w.cfg));
  embrace::comm::run_cluster(fabric, [&](Communicator& c) {
    Communicator data = c.channel(kDataChannel);
    const int me = c.rank();
    const Rng table_rng = Rng(g.cfg.seed).split(0);
    const embrace::core::PartitionedEmbedding pe(g.cfg.vocab, g.cfg.dim, me,
                                                 kWorkers, table_rng);
    const SparseRows part = rank_grad(g, me);
    const std::vector<int64_t>& my_ids = part.indices();
    const auto all_ids =
        embrace::core::PartitionedEmbedding::allgather_ids(data, my_ids);
    Tensor rows;
    auto lookup = timed_loop(c, kIters, [&](int) {
      rows = pe.distributed_lookup(data, all_ids, my_ids);
    });
    SparseRows shard_grad;
    auto grad = timed_loop(c, kIters, [&](int) {
      shard_grad = pe.exchange_grad(data, part);
    });
    Rng ref_rng = table_rng;
    const embrace::nn::Embedding ref(g.cfg.vocab, g.cfg.dim, ref_rng);
    if (rows.max_abs_diff(ref.forward(my_ids)) != 0.0f) ++bad;
    if (shard_grad.dim() != pe.shard_width() || !shard_grad.is_coalesced()) {
      ++bad;
    }
    if (me == 0) {
      lookup_us = std::move(lookup);
      grad_us = std::move(grad);
    }
  });
  report.timing("embrace.lookup_us", lookup_us, "us");
  report.timing("embrace.exchange_grad_us", grad_us, "us");
  report.check(bad == 0, "distributed lookup equals the replicated table");
}

// Single-thread kernels at the workload's geometry; returns the per-rank
// per-step compute the step model charges every strategy.
double kernel_suites(const Workload& w, Report& report) {
  constexpr int kIters = 200;
  const Geometry g = geometry_of(w.name, w.cfg.seed);
  const TrainConfig& cfg = g.cfg;

  // tensor: the gathered gradient one rank coalesces per table and step.
  SparseRows grad = SparseRows::empty(cfg.vocab, cfg.dim);
  for (int r = 0; r < kWorkers; ++r) {
    grad = SparseRows::concat(grad, rank_grad(g, r));
  }
  SparseRows co;
  const double coalesce =
      report.timing("tensor.coalesce_us",
                    time_kernel(kIters, [&] { co = grad.coalesced(); }), "us")
          .p50;
  report.check(co.is_coalesced() &&
                   std::abs(co.values().sum() - grad.values().sum()) <=
                       1e-3f * (1.0f + std::abs(grad.values().sum())),
               "coalesce keeps the gradient's sum");
  std::vector<std::byte> wire(grad.packed_byte_size());
  const double pack =
      report.timing("tensor.pack_us", time_kernel(kIters, [&] {
                      grad.pack_into(wire.data(), wire.size());
                    }),
                    "us")
          .p50;
  SparseRows back;
  const double unpack =
      report.timing("tensor.unpack_us", time_kernel(kIters, [&] {
                      back = SparseRows::unpack(wire);
                    }),
                    "us")
          .p50;
  report.check(back.logically_equal(grad), "unpack(pack(g)) == g");
  std::vector<int64_t> keep;
  for (int64_t r = 0; r < cfg.vocab; r += 2) keep.push_back(r);
  std::pair<SparseRows, SparseRows> parts;
  report.timing("tensor.split_us", time_kernel(kIters, [&] {
                  parts = co.split_by_membership(keep);
                }),
                "us");
  report.check(parts.first.nnz_rows() + parts.second.nnz_rows() ==
                   co.nnz_rows(),
               "split partitions the rows");
  double density = 0.0;
  report.timing("tensor.row_density_us",
                time_kernel(kIters, [&] { density = co.row_density(); }),
                "us");
  report.check(density > 0.0 && density <= 1.0, "row density in (0, 1]");

  // nn: the dense head's fused FP/BP and both optimizers.
  auto loader = make_loader(cfg, 0);
  const auto& batch = loader.current();
  Rng rng(cfg.seed + 1);
  auto head = embrace::nn::make_head(cfg.head, cfg.dim, cfg.hidden,
                                     cfg.classes, rng);
  const Tensor emb = Tensor::randn({batch.total_tokens(), cfg.dim}, rng);
  std::vector<int64_t> targets;
  for (const auto& row : batch.rows) {
    targets.push_back(row.front() % cfg.classes);
  }
  float loss = 0.0f;
  Tensor d_emb;
  const double head_us =
      report.timing("nn.head_fwd_bwd_us", time_kernel(kIters, [&] {
                      head->zero_grad();
                      loss = head->forward_backward(emb, batch.batch_size(),
                                                    batch.seq_len(), targets,
                                                    &d_emb);
                    }),
                    "us")
          .p50;
  report.check(std::isfinite(loss) && d_emb.rows() == batch.total_tokens(),
               "head loss is finite");
  embrace::nn::Adam adam(head->parameters(), cfg.lr);
  const double dense_adam =
      report.timing("nn.dense_adam_us",
                    time_kernel(kIters, [&] { adam.step(); }), "us")
          .p50;
  embrace::nn::SparseAdam sparse_adam(cfg.vocab, cfg.dim, cfg.lr);
  Tensor table = Tensor::randn({cfg.vocab, cfg.dim}, rng);
  SparseRows avg = co;
  avg.scale_(1.0f / kWorkers);
  const double sparse_us =
      report.timing("nn.sparse_adam_us", time_kernel(kIters, [&] {
                      sparse_adam.apply(table, avg,
                                        embrace::nn::SparseStep::kFull);
                    }),
                    "us")
          .p50;
  report.check(std::isfinite(table.sum()), "Adam keeps parameters finite");

  // data: the loader's per-step batch production.
  const double advance =
      report.timing("data.advance_us",
                    time_kernel(kIters, [&] { loader.advance(); }), "us")
          .p50;
  report.check(loader.current().batch_size() == cfg.batch_per_worker,
               "loader yields full batches");

  return head_us + dense_adam + advance +
         cfg.num_tables * (sparse_us + coalesce + pack + unpack);
}

}  // namespace

LayerCosts run_layers(const Workload& w, Report& report) {
  const FabricSamples local = fabric_suite(LinkCost{}, {1100, false, 300},
                                           report);
  const FabricSamples wan = fabric_suite(kWanLink, {200, false, 200}, report);
  // α and β are fitted on the workload's own link: its per-message and
  // per-byte cost is what the step model charges.
  const FabricSamples own = fabric_suite(link_of(w.cfg), {0, true, 0}, report);
  const Summary hop = report.note("comm.hop_us", local.hop_us, "us");
  report.set("comm.hop_us.p50", hop.p50, "us");
  report.set("comm.hop_us.p99", percentile(local.hop_us, 99.0), "us");
  report.set("comm.hop_us_wan.p50",
             report.note("comm.hop_us_wan", wan.hop_us, "us").p50, "us");
  const LineFit ab = fit_line(own.fit_bytes, own.fit_us);
  report.set("comm.alpha_us", ab.alpha, "us");
  report.set("comm.alpha_se_us", ab.alpha_se, "us");
  report.set("comm.beta_ns_per_byte", ab.beta * 1e3, "ns/B");
  report.set("comm.beta_se_ns_per_byte", ab.beta_se * 1e3, "ns/B");
  const double op_us = report.timing("sched.op_us", local.op_us, "us").p50;
  report.timing("sched.op_us_wan", wan.op_us, "us");
  report.timing("sched.slice_us", local.slice_us, "us");

  collectives_suite(w, report);
  embrace_suite(w, report);
  const double compute_us = kernel_suites(w, report);
  return LayerCosts{ab.alpha, ab.beta, op_us, compute_us};
}

}  // namespace perfbench
