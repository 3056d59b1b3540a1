#include "workloads.h"

#include <stdexcept>

namespace perfbench {

using embrace::core::StrategyKind;
using embrace::core::TrainConfig;

namespace {

constexpr double kWanAlphaUs = 50.0;

// Gbit/s -> bytes per microsecond.
double gbps(double g) { return g * 1e9 / 8.0 / 1e6; }

TrainConfig base(uint64_t seed) {
  TrainConfig cfg;
  cfg.num_tables = 2;
  cfg.seed = seed;
  return cfg;
}

TrainConfig wide(uint64_t seed) {
  TrainConfig cfg = base(seed);
  cfg.vocab = 8192;
  cfg.dim = 64;
  cfg.hidden = 64;
  cfg.batch_per_worker = 32;
  cfg.max_sentence_len = 32;
  return cfg;
}

std::vector<int64_t> table0_ids(const embrace::data::Batch& batch,
                                int tables) {
  std::vector<int64_t> ids;
  const int64_t seq = batch.seq_len();
  for (const auto& row : batch.rows) {
    for (int64_t c = 0; c < seq / tables; ++c) {
      ids.push_back(row[static_cast<size_t>(c)]);
    }
  }
  return ids;
}

}  // namespace

// Mirrors the trainer's own TrainConfig -> CorpusConfig mapping, so the
// token counts here are exactly the batches the trainer draws.
embrace::data::PrefetchingLoader make_loader(const TrainConfig& cfg,
                                             int rank) {
  embrace::data::CorpusConfig c;
  c.vocab_size = cfg.vocab;
  c.zipf_skew = cfg.zipf_skew;
  c.min_sentence_len = cfg.min_sentence_len;
  c.max_sentence_len = cfg.max_sentence_len;
  c.reuse_prob = cfg.reuse_prob;
  c.seed = cfg.seed;
  return embrace::data::make_corpus_loader(c, rank, cfg.batch_per_worker);
}

// Step counts size one repetition of the four strategies at 3-4 s, so a
// run repeats each several times; oracle_steps size one run_oracle sample
// at 0.1-0.2 s.
Workload make_workload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.warmup_steps = 3;
  if (name == "wan-small") {
    // Bound by message count, not bytes: the "fewer messages" workload.
    w.cfg = base(seed);
    w.cfg.link_alpha_us = kWanAlphaUs;
    w.cfg.link_bytes_per_us = gbps(10.0);
    w.steps = 120;
    w.oracle_steps = 1000;
    w.traced_steps = 60;
  } else if (name == "wan-wide") {
    // Bytes matter: per-byte wire cost, pack/coalesce, the buffer pool.
    w.cfg = wide(seed);
    w.cfg.link_alpha_us = kWanAlphaUs;
    w.cfg.link_bytes_per_us = gbps(1.0);
    w.steps = 40;
    w.oracle_steps = 40;
    w.traced_steps = 20;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // A hang becomes a TimeoutError (a failed run) instead of wedging.
  w.cfg.recv_timeout_ms = 30000;
  return w;
}

const std::vector<StrategyKind>& strategies() {
  static const std::vector<StrategyKind> all{
      StrategyKind::kEmbRace, StrategyKind::kEmbRaceNoVss,
      StrategyKind::kHorovodAllGather, StrategyKind::kHorovodAllReduce};
  return all;
}

double ids_per_table(const TrainConfig& cfg) {
  constexpr int kSteps = 8;
  int64_t ids = 0;
  for (int r = 0; r < kWorkers; ++r) {
    auto loader = make_loader(cfg, r);
    for (int s = 0; s < kSteps; ++s) {
      ids += static_cast<int64_t>(
          table0_ids(loader.current(), cfg.num_tables).size());
      loader.advance();
    }
  }
  return static_cast<double>(ids) / (kWorkers * kSteps);
}

std::vector<int64_t> sample_ids(const TrainConfig& cfg, int rank, int64_t n) {
  std::vector<int64_t> ids;
  auto loader = make_loader(cfg, rank);
  while (static_cast<int64_t>(ids.size()) < n) {
    for (const int64_t id : table0_ids(loader.current(), cfg.num_tables)) {
      ids.push_back(id);
    }
    loader.advance();
  }
  ids.resize(static_cast<size_t>(n));
  return ids;
}

std::vector<int64_t> tokens_per_step(const TrainConfig& cfg) {
  std::vector<int64_t> tokens(static_cast<size_t>(cfg.steps), 0);
  for (int r = 0; r < kWorkers; ++r) {
    auto loader = make_loader(cfg, r);
    for (auto& t : tokens) {
      t += loader.current().non_pad_tokens();
      loader.advance();
    }
  }
  return tokens;
}

}  // namespace perfbench
