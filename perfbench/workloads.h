// The benchmark's named workloads. Each is a TrainConfig generated from the
// workload name and the seed alone; the program under test receives only
// that config (and the inputs its loaders derive from cfg.seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/loader.h"
#include "embrace/strategy.h"

namespace perfbench {

inline constexpr int kWorkers = 4;

struct Workload {
  std::string name;
  embrace::core::TrainConfig cfg;  // strategy left at its default
  int steps = 0;         // steps of one timed end-to-end run
  int oracle_steps = 0;  // steps of one timed run_oracle call
  int warmup_steps = 0;  // leading steps excluded from the steady window
  int traced_steps = 0;  // steps of the per-layer (traced) runs
};

// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, uint64_t seed);

// The strategies the benchmark compares, by strategy_kind_name.
const std::vector<embrace::core::StrategyKind>& strategies();

// One rank's token ids for one table per step, averaged over the first
// steps of every rank: the real payload size of a workload.
double ids_per_table(const embrace::core::TrainConfig& cfg);

// The first `n` table-0 token ids `rank` feeds its embedding over its
// first steps (the trainer's segmentation: table t owns a contiguous slice
// of each padded row).
std::vector<int64_t> sample_ids(const embrace::core::TrainConfig& cfg,
                                int rank, int64_t n);

// The corpus loader `rank` trains from under `cfg`.
embrace::data::PrefetchingLoader make_loader(
    const embrace::core::TrainConfig& cfg, int rank);

// Non-pad tokens trained at each step, summed over kWorkers ranks.
std::vector<int64_t> tokens_per_step(const embrace::core::TrainConfig& cfg);

}  // namespace perfbench
