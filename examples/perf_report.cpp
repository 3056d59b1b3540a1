// perf_report: runs a distributed training job through the performance
// observatory (DESIGN.md §11) and writes PERF_report.json — the full
// rank × step phase matrix, per-step straggler attribution, per-link α–β
// fits, and per-OpKind bytes-on-wire.
//
// The fabric is given an emulated uniform link cost so the online profiler
// has a real network profile to measure; compare the fitted alpha_us/gbps
// in the report against the values passed on the command line.
//
// Usage:
//   perf_report [workers] [steps] [strategy] [tables] [alpha_us] [gbps]
//               [nodes] [codec]
//     workers:  rank count                          (default 4)
//     steps:    training steps                      (default 6)
//     strategy: allreduce|allgather|novss|embrace   (default embrace)
//     tables:   embedding tables                    (default 2)
//     alpha_us: emulated inter-node α per round     (default 50)
//     gbps:     emulated link bandwidth in Gbit/s   (default 10)
//     nodes:    cluster nodes (must divide workers; 0 = flat fabric,
//               default). With nodes > 1 the fabric gets a two-tier
//               topology — intra-node links at α/10 and 4x bandwidth —
//               the trainer runs the dense AllReduce over the CommGroup
//               tree (the embedding AlltoAlls stay one flat round), and
//               the report prints per-tier bytes on wire.
//     codec:    gradient wire codec (identity|fp16|bf16|topk|adaptive,
//               default identity). Non-identity runs compress gradient
//               payloads and the report prints the per-codec
//               comm.codec.bytes_in/bytes_out compression ratios.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "embrace/strategy.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/report.h"

using namespace embrace;
using namespace embrace::core;

namespace {

StrategyKind pick_strategy(const std::string& name) {
  if (name == "allreduce") return StrategyKind::kHorovodAllReduce;
  if (name == "allgather") return StrategyKind::kHorovodAllGather;
  if (name == "novss") return StrategyKind::kEmbRaceNoVss;
  if (name == "embrace") return StrategyKind::kEmbRace;
  std::fprintf(stderr,
               "unknown strategy '%s' (want allreduce|allgather|novss|"
               "embrace)\n",
               name.c_str());
  std::exit(2);
}

int positive_arg(const char* text, const char* what) {
  const int v = std::atoi(text);
  if (v < 1) {
    std::fprintf(stderr, "%s must be a positive integer, got '%s'\n", what,
                 text);
    std::exit(2);
  }
  return v;
}

// Step index from a scheduler op name ("prior/s3" -> 3), or -1.
int step_of(const std::string& name) {
  const size_t pos = name.find("/s");
  if (pos == std::string::npos) return -1;
  return std::atoi(name.c_str() + pos + 2);
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = argc > 1 ? positive_arg(argv[1], "workers") : 4;
  const int steps = argc > 2 ? positive_arg(argv[2], "steps") : 6;
  const std::string strategy = argc > 3 ? argv[3] : "embrace";
  const int tables = argc > 4 ? positive_arg(argv[4], "tables") : 2;
  const double alpha_us = argc > 5 ? std::atof(argv[5]) : 50.0;
  const double gbps = argc > 6 ? std::atof(argv[6]) : 10.0;
  const int nodes = argc > 7 ? std::atoi(argv[7]) : 0;
  const std::string codec = argc > 8 ? argv[8] : "identity";
  if (alpha_us < 0.0 || gbps < 0.0) {
    std::fprintf(stderr, "alpha_us and gbps must be >= 0\n");
    return 2;
  }
  if (nodes < 0 || (nodes > 0 && workers % nodes != 0)) {
    std::fprintf(stderr, "nodes must be >= 0 and divide workers\n");
    return 2;
  }

  TrainConfig cfg;
  cfg.strategy = pick_strategy(strategy);
  cfg.steps = steps;
  cfg.num_tables = tables;
  cfg.batch_per_worker = 4;
  cfg.perf_profile = true;
  cfg.link_alpha_us = alpha_us;
  cfg.link_bytes_per_us = gbps * 1e9 / 8.0 / 1e6;  // Gbit/s -> bytes/µs
  // CLI boundary: parse the spelling here, carry the enum from now on.
  if (const auto kind = core::parse_codec_kind(codec)) {
    cfg.codec = *kind;
  } else {
    std::fprintf(stderr, "unknown codec '%s'\n", codec.c_str());
    return 2;
  }
  if (nodes > 0) {
    cfg.topo_nodes = nodes;
    cfg.topo_gpus_per_node = workers / nodes;
    cfg.link_intra_alpha_us = alpha_us / 10.0;
    cfg.link_intra_bytes_per_us = cfg.link_bytes_per_us * 4.0;
  }

  obs::link_profiler().reset();
  obs::link_profiler().set_enabled(true);
  const TrainStats stats = run_distributed(cfg, workers);
  obs::link_profiler().set_enabled(false);

  // Per-OpKind bytes-on-wire and per-step comm busy time, both from rank
  // 0's comm-thread execution log.
  std::map<std::string, obs::KindBytes> by_kind;
  std::map<int, double> comm_busy_ms;
  for (const auto& rec : stats.comm_log) {
    auto& k = by_kind[sched::op_kind_name(rec.kind)];
    k.kind = sched::op_kind_name(rec.kind);
    k.bytes += rec.bytes;
    k.ops += 1;
    if (const int s = step_of(rec.name); s >= 0) {
      comm_busy_ms[s] += (rec.end - rec.start) * 1e3;
    }
  }
  std::vector<obs::KindBytes> bytes_by_kind;
  for (auto& [name, k] : by_kind) bytes_by_kind.push_back(std::move(k));

  obs::RunInfo run;
  run.strategy = strategy_kind_name(cfg.strategy);
  run.workers = workers;
  run.steps = steps;
  run.tables = tables;
  run.wall_seconds = stats.wall_seconds;
  run.fabric_bytes = stats.fabric_bytes;
  run.fabric_messages = stats.fabric_messages;

  const obs::PerfReport report = obs::build_report(
      run, stats.step_profiles, obs::link_profiler().fits(),
      std::move(bytes_by_kind), std::move(comm_busy_ms));
  if (!obs::write_report_json(report, "PERF_report.json")) {
    std::fprintf(stderr, "failed to write PERF_report.json\n");
    return 1;
  }

  std::printf("%d steps x %d workers (%s), final loss %.4f, wall %.2fs\n",
              steps, workers, strategy_kind_name(cfg.strategy),
              stats.losses.empty() ? 0.0f : stats.losses.back(),
              stats.wall_seconds);
  std::printf("\nper-step (ms):\n");
  std::printf("  %4s %9s %9s %8s %7s %s\n", "step", "mean", "max", "skew",
              "slowest", "bound");
  for (const auto& a : report.steps) {
    std::printf("  %4d %9.2f %9.2f %8.2f %7d %s\n", a.step, a.mean_wall_ms,
                a.max_wall_ms, a.skew_ms, a.slowest_rank,
                obs::bound_name(a.bound));
  }
  std::printf("\nlink fits (configured: alpha=%.1fus, %.1f Gbps):\n",
              alpha_us, gbps);
  for (const auto& f : report.links) {
    std::printf("  %d->%d: n=%lld alpha=%.1fus bw=%.2f Gbps\n", f.src, f.dst,
                static_cast<long long>(f.samples), f.alpha_us, f.gbps());
  }
  std::printf("\nbytes on wire by op kind:\n");
  for (const auto& k : report.bytes_by_kind) {
    std::printf("  %-16s %12lld bytes in %lld ops\n", k.kind.c_str(),
                static_cast<long long>(k.bytes),
                static_cast<long long>(k.ops));
  }
  // Control plane (DESIGN.md §10): the leader announces each negotiation
  // unit once — an op group, or a plain op on its own — until the
  // step's groups repeat; from then on it replays them without a message.
  std::printf("\nscheduler announcements: %lld\n",
              static_cast<long long>(
                  obs::counter("sched.announcements").value()));
  std::printf("scheduler replayed units: %lld\n",
              static_cast<long long>(obs::counter("sched.replayed").value()));
  // Sparse-algorithm engine decisions (DESIGN.md §12) — populated by the
  // allgather strategy's per-op AlgoPicker, zero elsewhere.
  bool any_picks = false;
  for (const char* algo :
       {"allgather", "recursive-doubling", "dense", "two-level"}) {
    const std::string label = std::string("{algo=") + algo + "}";
    const int64_t picks =
        obs::counter("sparse.algo.picks" + label).value();
    if (picks == 0) continue;
    if (!any_picks) std::printf("\nsparse algorithm picks:\n");
    any_picks = true;
    std::printf("  %-20s %6lld ops %12lld gradient bytes\n", algo,
                static_cast<long long>(picks),
                static_cast<long long>(
                    obs::counter("sparse.algo.bytes" + label).value()));
  }
  // Dense AllReduce routes (DESIGN.md §10): every allreduce counts the
  // route its α–β pick took, the one-round one-shot or the ring.
  std::printf("\ndense allreduce routes:\n");
  for (const char* algo : {"one_shot", "ring"}) {
    std::printf("  %-20s %6lld calls\n", algo,
                static_cast<long long>(
                    obs::counter(std::string("comm.allreduce_algo{algo=") +
                                 algo + "}")
                        .value()));
  }
  // Codec compression accounting (DESIGN.md §14): bytes_in is raw value
  // bytes offered to each codec, bytes_out what actually hit the wire.
  bool any_codec = false;
  for (int k = 0; k < comm::kNumCodecKinds; ++k) {
    const auto kind = static_cast<comm::CodecKind>(k);
    const std::string label =
        std::string("{codec=") + comm::codec_kind_name(kind) + "}";
    const int64_t in = obs::counter("comm.codec.bytes_in" + label).value();
    if (in == 0) continue;
    const int64_t out = obs::counter("comm.codec.bytes_out" + label).value();
    if (!any_codec) std::printf("\ngradient codec compression:\n");
    any_codec = true;
    std::printf("  %-10s %12lld -> %12lld bytes (%.2fx)\n",
                comm::codec_kind_name(kind), static_cast<long long>(in),
                static_cast<long long>(out),
                out > 0 ? static_cast<double>(in) / static_cast<double>(out)
                        : 0.0);
  }
  if (nodes > 0) {
    // Per-tier wire accounting from the fabric's topology counters: the
    // two-level AllReduce confines the dense head's reduce and broadcast
    // stages to the intra tier, while the flat embedding AlltoAlls send
    // every cross-node payload over the inter tier directly.
    const int64_t intra_bytes =
        obs::counter("comm.bytes{tier=intra}").value();
    const int64_t inter_bytes =
        obs::counter("comm.bytes{tier=inter}").value();
    const int64_t total = intra_bytes + inter_bytes;
    std::printf("\nbytes on wire by tier (%d nodes x %d gpus/node):\n",
                nodes, workers / nodes);
    std::printf("  intra-node %12lld bytes (%.1f%%)\n",
                static_cast<long long>(intra_bytes),
                total > 0 ? 100.0 * intra_bytes / total : 0.0);
    std::printf("  inter-node %12lld bytes (%.1f%%)\n",
                static_cast<long long>(inter_bytes),
                total > 0 ? 100.0 * inter_bytes / total : 0.0);
  }
  std::puts("\nwrote PERF_report.json");
  return 0;
}
