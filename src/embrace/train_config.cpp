// TrainConfig validation: every constraint the trainer used to assert
// ad-hoc, collected into one typed report (ConfigError per field). Also
// hosts the config-boundary string<->enum helpers for the typed knobs.
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "embrace/strategy.h"

namespace embrace::core {
namespace {

// chunk_bytes bounds: below one cache line the per-chunk tag/header
// overhead dwarfs the payload; above 1 GiB the knob is clearly a typo.
constexpr int64_t kMinChunkBytes = 64;
constexpr int64_t kMaxChunkBytes = int64_t{1} << 30;

std::string format_errors(const std::vector<ConfigError>& errors) {
  std::ostringstream os;
  os << "invalid TrainConfig (" << errors.size() << " problem"
     << (errors.size() == 1 ? "" : "s") << "):";
  for (const auto& e : errors) os << "\n  " << e.field << ": " << e.message;
  return os.str();
}

}  // namespace

ConfigValidationError::ConfigValidationError(std::vector<ConfigError> errors)
    : Error(format_errors(errors)), errors_(std::move(errors)) {}

std::optional<CodecKind> parse_codec_kind(std::string_view s) {
  if (s == "identity") return CodecKind::kIdentity;
  if (s == "fp16") return CodecKind::kFp16;
  if (s == "bf16") return CodecKind::kBf16;
  if (s == "topk") return CodecKind::kTopK;
  if (s == "adaptive") return CodecKind::kAdaptive;
  return std::nullopt;
}

const char* codec_kind_name(CodecKind c) {
  switch (c) {
    case CodecKind::kIdentity: return "identity";
    case CodecKind::kFp16: return "fp16";
    case CodecKind::kBf16: return "bf16";
    case CodecKind::kTopK: return "topk";
    case CodecKind::kAdaptive: return "adaptive";
  }
  return "?";
}

std::vector<ConfigError> TrainConfig::validate(int workers) const {
  std::vector<ConfigError> errors;
  const auto fail = [&](const char* field, const std::string& message) {
    errors.push_back({field, message});
  };
  const auto str = [](auto v) { return std::to_string(v); };

  if (workers < 1) fail("workers", "need at least 1 worker, got " +
                        str(workers));
  if (vocab < 1) fail("vocab", "need a positive vocab, got " + str(vocab));
  if (dim < 1) {
    fail("dim", "need a positive embedding dim, got " + str(dim));
  } else if (workers >= 1 && dim < workers) {
    fail("dim", "column partitioning needs dim >= workers (" + str(dim) +
                    " < " + str(workers) + ")");
  }
  if (hidden < 1) fail("hidden", "need a positive hidden size, got " +
                       str(hidden));
  if (classes < 1) fail("classes", "need a positive class count, got " +
                        str(classes));
  if (num_tables < 1) {
    fail("num_tables", "need at least 1 embedding table, got " +
                           str(num_tables));
  } else if (num_tables > max_sentence_len) {
    fail("num_tables",
         "more tables than sentence columns to segment (" + str(num_tables) +
             " > max_sentence_len=" + str(max_sentence_len) + ")");
  }
  if (batch_per_worker < 1) {
    fail("batch_per_worker", "need a positive batch size, got " +
                                 str(batch_per_worker));
  }
  if (steps < 1) fail("steps", "need at least 1 step, got " + str(steps));
  if (min_sentence_len < 1) {
    fail("min_sentence_len", "need a positive sentence length, got " +
                                 str(min_sentence_len));
  }
  if (max_sentence_len < min_sentence_len) {
    fail("max_sentence_len", "max_sentence_len (" + str(max_sentence_len) +
                                 ") < min_sentence_len (" +
                                 str(min_sentence_len) + ")");
  }
  if (chunk_bytes != 0 &&
      (chunk_bytes < kMinChunkBytes || chunk_bytes > kMaxChunkBytes)) {
    fail("chunk_bytes", "must be 0 (monolithic) or in [" +
                            str(kMinChunkBytes) + ", " + str(kMaxChunkBytes) +
                            "], got " + str(chunk_bytes));
  }
  if (!(codec_topk > 0.0 && codec_topk <= 1.0)) {
    fail("codec_topk", "must be in (0, 1], got " + std::to_string(codec_topk));
  }
  if (!(cache_frac >= 0.0 && cache_frac <= 1.0)) {
    fail("cache_frac", "must be in [0, 1] (0 = cache off), got " +
                           std::to_string(cache_frac));
  } else if (cache_frac > 0.0 && strategy != StrategyKind::kEmbRace &&
             strategy != StrategyKind::kEmbRaceNoVss) {
    fail("cache_frac",
         "the hot-row cache layers over the hybrid embedding exchange; use "
         "kEmbRace or kEmbRaceNoVss, not " +
             std::string(strategy_kind_name(strategy)));
  }
  if (cache_refresh_steps < 1) {
    fail("cache_refresh_steps", "need >= 1 step between membership "
                                "refreshes, got " + str(cache_refresh_steps));
  }
  if (cache_staleness < 0) {
    fail("cache_staleness", "must be >= 0 (0 = sync every step), got " +
                                str(cache_staleness));
  }
  if (topo_nodes < 0) {
    fail("topo_nodes", "must be >= 0 (0 = no topology), got " +
                           str(topo_nodes));
  }
  if (topo_gpus_per_node < 0) {
    fail("topo_gpus_per_node", "must be >= 0 (0 = no topology), got " +
                                   str(topo_gpus_per_node));
  }
  if ((topo_nodes > 0) != (topo_gpus_per_node > 0)) {
    fail("topo_nodes",
         "topo_nodes and topo_gpus_per_node must be set together (got " +
             str(topo_nodes) + " x " + str(topo_gpus_per_node) + ")");
  } else if (topo_nodes > 0 && workers >= 1 &&
             topo_nodes * topo_gpus_per_node != workers) {
    fail("topo_nodes", "topology must tile the world: " + str(topo_nodes) +
                           " nodes x " + str(topo_gpus_per_node) +
                           " gpus/node != " + str(workers) + " workers");
  }
  if (link_intra_alpha_us < 0.0) {
    fail("link_intra_alpha_us", "must be >= 0");
  }
  if (link_intra_bytes_per_us < 0.0) {
    fail("link_intra_bytes_per_us", "must be >= 0 (0 = infinite bandwidth)");
  }
  if ((strategy == StrategyKind::kParallaxPs ||
       strategy == StrategyKind::kBytePsDense) &&
      optim != OptimKind::kSgd) {
    fail("optim", "the PS emulation applies SGD server-side; use kSgd with " +
                      std::string(strategy_kind_name(strategy)));
  }
  return errors;
}

}  // namespace embrace::core
