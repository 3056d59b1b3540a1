// Quickstart: train a tiny sparse NLP model with EmbRace on 4 in-process
// workers and watch the loss, the wire traffic, and the communication
// schedule.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "embrace/strategy.h"

int main() {
  using namespace embrace;
  using namespace embrace::core;

  // Describe the training job. The model is a vocabulary-heavy classifier:
  // an embedding table (the sparse part EmbRace accelerates) under a small
  // dense head.
  TrainConfig cfg;
  cfg.strategy = StrategyKind::kEmbRace;  // hybrid comm + 2D scheduling
  cfg.vocab = 2000;                       // embedding rows
  cfg.dim = 32;                           // embedding columns (partitioned)
  cfg.hidden = 32;
  cfg.classes = 50;
  cfg.head = nn::HeadKind::kPoolMlp;
  cfg.optim = OptimKind::kAdam;  // EmbRace's modified Adam under the hood
  cfg.lr = 0.02f;
  cfg.batch_per_worker = 8;
  cfg.steps = 20;
  cfg.seed = 7;

  constexpr int kWorkers = 4;
  std::printf("Training with %s on %d workers...\n\n",
              strategy_kind_name(cfg.strategy), kWorkers);
  const TrainStats stats = run_distributed(cfg, kWorkers);

  std::puts("step | global mean loss");
  for (size_t s = 0; s < stats.losses.size(); ++s) {
    std::printf("%4zu | %.4f\n", s, stats.losses[s]);
  }

  std::printf("\nwire traffic: %.2f MB in %lld messages\n",
              stats.fabric_bytes / (1024.0 * 1024.0),
              static_cast<long long>(stats.fabric_messages));

  std::puts("\nfirst scheduled communication ops on rank 0 (note the 2D "
            "order: emb data -> prior grads -> dense blocks; delayed grads "
            "ride the next step's emb data):");
  for (size_t i = 0; i < stats.comm_log.size() && i < 12; ++i) {
    std::printf("  %2zu. %s\n", i, stats.comm_log[i].name.c_str());
  }
  return 0;
}
