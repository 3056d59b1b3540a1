// Strategy and configuration types for the functional distributed trainer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/corpus.h"
#include "nn/heads.h"
#include "obs/perf.h"
#include "sched/scheduler.h"

namespace embrace::core {

// Functional counterparts of the paper's compared approaches (§5.2.3).
// BytePS's tensor partitioning and PS placement for *dense* layers are
// performance-level concerns that live in the simulator; the functional
// kBytePsDense captures its two defining behaviours for this paper: the
// embedding gradient travels in DENSE format through a PS, and
// communication is priority-scheduled (ByteScheduler).
enum class StrategyKind {
  kHorovodAllReduce,  // embeddings communicated dense via AllReduce
  kHorovodAllGather,  // sparse AllGather for embedding grads
  kBytePsDense,       // dense-format PS for embeddings + priority schedule
  kParallaxPs,        // sharded sparse PS for embeddings (+ AllReduce dense)
  kEmbRaceNoVss,      // hybrid comm (AlltoAll), FIFO order, whole gradients
  kEmbRace,           // hybrid comm + 2D scheduling (Algorithm 1 + priority)
};

const char* strategy_kind_name(StrategyKind s);

enum class OptimKind { kSgd, kAdagrad, kAdam };

// Gradient wire codec (DESIGN.md §14). kAdaptive is a policy, not a wire
// format: it picks between bf16 and top-k per table from the rank-agreed
// mean |grad| (which is why it exists here and not in comm::CodecKind).
// Strings exist only at the config boundary (CLI flags, JSON): parse them
// once with parse_codec_kind and carry the enum everywhere else.
enum class CodecKind {
  kIdentity,
  kFp16,
  kBf16,
  kTopK,
  kAdaptive,
};

// Boundary helpers: spelling -> enum (nullopt on unknown names) and the
// canonical spelling back; parse_codec_kind(codec_kind_name(c)) == c.
std::optional<CodecKind> parse_codec_kind(std::string_view s);
const char* codec_kind_name(CodecKind c);

// One validation failure: the offending TrainConfig field and why it is
// invalid. validate() collects every problem instead of stopping at the
// first, so a bad config surfaces as one actionable report.
struct ConfigError {
  std::string field;
  std::string message;
};

// Thrown by the trainer entry points when validate() finds problems; keeps
// the full typed list alongside the formatted what().
class ConfigValidationError : public Error {
 public:
  explicit ConfigValidationError(std::vector<ConfigError> errors);
  const std::vector<ConfigError>& errors() const { return errors_; }

 private:
  std::vector<ConfigError> errors_;
};

struct TrainConfig {
  StrategyKind strategy = StrategyKind::kEmbRace;

  // Model geometry (functional scale).
  int64_t vocab = 400;
  int64_t dim = 16;  // must be >= number of workers (column partitioning)
  int64_t hidden = 24;
  int64_t classes = 30;
  nn::HeadKind head = nn::HeadKind::kPoolMlp;
  // Number of embedding tables. With T > 1, each sentence is split into T
  // contiguous segments and segment t is embedded by table t — the
  // functional analogue of GNMT/Transformer's separate encoder/decoder
  // embeddings. Every table keeps its own shard, optimizer, codec and
  // cache. Every strategy carries all tables in one op per kind and step
  // (one embdata / prior AlltoAllv under EmbRace, whose delayed part rides
  // the next step's embdata, one embgrad op under the Horovod and PS
  // strategies).
  int num_tables = 1;

  OptimKind optim = OptimKind::kAdam;
  float lr = 0.01f;

  // Workload.
  int batch_per_worker = 4;
  int steps = 10;
  int min_sentence_len = 3;
  int max_sentence_len = 8;
  double zipf_skew = 1.0;
  double reuse_prob = 0.3;

  uint64_t seed = 42;

  // Wire chunking of the dense-ring AllReduces (DESIGN.md §10): when > 0,
  // each ring step's block travels as <= chunk_bytes messages, pipelined
  // behind each other. The op still runs whole on the comm thread; only the
  // wire changes. 0 = one message per ring step. Results are
  // bitwise-identical either way. When > 0, must be in [64, 1 GiB]
  // (validate()).
  int64_t chunk_bytes = 0;

  // Gradient wire codec (DESIGN.md §14): kIdentity (no compression, wire
  // byte-for-byte as before), kFp16 | kBf16 (half-width casts), kTopK
  // (keep the codec_topk largest-|v| fraction per payload, error feedback
  // re-injects the rest next step), or kAdaptive (per-table pick between
  // bf16 and topk from the rank-agreed mean |grad|). Applies to the
  // embedding-gradient collectives and — for lossy codecs with error
  // feedback — the dense AllReduce; the PS emulations (kParallaxPs,
  // kBytePsDense) ignore it. Spellings ("identity" | "fp16" | "bf16" |
  // "topk" | "adaptive") parse via parse_codec_kind at the boundary.
  CodecKind codec = CodecKind::kIdentity;
  // Kept fraction for the top-k codec, in (0, 1]. Lossy codecs always run
  // with rank-local error feedback: the quantization error of step t is
  // added back into the gradient of step t+1, which is what keeps top-k
  // training convergent.
  double codec_topk = 0.2;

  // Hot-row embedding cache (DESIGN.md §15), hybrid strategies only
  // (kEmbRace / kEmbRaceNoVss). cache_frac > 0 layers a per-rank replica
  // of the hottest rows over the column-partitioned tables: hot rows stop
  // travelling through the AlltoAll (served locally, gradients synced via
  // a chunked codec-aware AllReduce), cold rows keep the hybrid path.
  // cache_frac caps the hot set at floor(cache_frac * vocab) rows (the
  // AlgoPicker prices the actual cut); membership refreshes from
  // allreduced access counters every cache_refresh_steps steps (an
  // epoch-style rank-agreed switch); cache_staleness bounds how many steps
  // a replica may lag before a forced gradient sync — 0 syncs every step
  // and preserves the modified-Adam oracle equivalence, larger bounds
  // trade exactness for fewer sync AllReduces.
  double cache_frac = 0.0;
  int cache_refresh_steps = 8;
  int cache_staleness = 1;

  // Fault injection (DESIGN.md §8). Per-message probabilities applied on
  // every link, deterministic given `seed`. With recoverable drops the run
  // must still produce oracle-equal losses (the collectives retry lost
  // messages); with unrecoverable drops the affected link is black-holed
  // and the run fails with a TimeoutError naming the edge — provided
  // recv_timeout_ms arms a deadline (0 = wait forever, faults off the
  // clock). fault_delay_max_us alone is per-message delivery jitter:
  // correctness must be timing-independent, so runs with it still produce
  // oracle-equal losses.
  double fault_drop_prob = 0.0;
  double fault_dup_prob = 0.0;
  double fault_reorder_prob = 0.0;
  uint64_t fault_delay_max_us = 0;
  bool fault_recoverable = true;
  uint64_t recv_timeout_ms = 0;

  // Emulated uniform α–β link cost (DESIGN.md §11): when either field is
  // > 0, every cross-rank fabric delivery lands link_alpha_us +
  // bytes / link_bytes_per_us microseconds after it leaves the sender's
  // egress, where a rank's bytes queue behind its earlier ones.
  // Gives the in-process fabric a real (configurable) network profile, so
  // the online link profiler has something to measure. The sparse-algorithm
  // and hot-row-cache pickers price the same link (cost_params in
  // embedding_sync.h); 0 there means simnet's default constant.
  double link_alpha_us = 0.0;
  double link_bytes_per_us = 0.0;

  // Cluster topology (DESIGN.md §13). When topo_nodes > 0 the fabric is
  // given a block node map (rank r lives on node r / topo_gpus_per_node;
  // topo_nodes × topo_gpus_per_node must equal `workers`) and per-tier link
  // costs fall out of it: cross-node deliveries pay the link_* α–β above
  // (the inter tier), same-node deliveries pay the link_intra_* cost below.
  // With >1 node and >1 GPU/node, dense AllReduce and the "two-level"
  // sparse variant route through the hierarchical AllReduce over the
  // CommGroup tree: results stay within float tolerance of the flat path.
  // 0 = no topology (flat fabric, all deliveries priced alike).
  int topo_nodes = 0;
  int topo_gpus_per_node = 0;
  double link_intra_alpha_us = 0.0;
  double link_intra_bytes_per_us = 0.0;

  // Performance observatory (DESIGN.md §11). Phase accounting itself is
  // always on (it is a handful of clock reads per step); this knob controls
  // the cross-rank StepProfile exchange: when true, ranks allgather their
  // profile at the end of every step on a dedicated channel, every rank
  // sees the full rank × step matrix, and rank 0 publishes it in
  // TrainStats::step_profiles. Off by default: the exchange adds one small
  // collective per step to the wire, which would perturb traffic-exactness
  // tests.
  bool perf_profile = false;

  // Checks every field against `workers` ranks and returns all problems
  // (empty = valid). Replaces the trainer's former scattered ad-hoc checks.
  std::vector<ConfigError> validate(int workers) const;
};

struct TrainStats {
  std::vector<float> losses;  // global mean loss per step
  // Wire traffic over the whole run (in-process fabric bytes; excludes the
  // PS emulation, which is accounted separately).
  int64_t fabric_bytes = 0;
  int64_t fabric_messages = 0;
  int64_t ps_bytes = 0;  // Parallax only: push+pull volume
  // Rank 0's comm-thread execution log (op name + timing).
  std::vector<sched::ExecRecord> comm_log;
  // Full rank × step phase matrix, populated only when
  // TrainConfig::perf_profile is set (ordered by step, then rank).
  std::vector<obs::StepProfile> step_profiles;
  // Wall-clock seconds for the whole run and rank 0's comm-thread busy
  // time (sum of op durations) — a coarse overlap indicator.
  double wall_seconds = 0.0;
  double comm_busy_seconds = 0.0;
};

// Runs synchronous data-parallel training with `workers` in-process ranks.
TrainStats run_distributed(const TrainConfig& config, int workers);

// Single-process reference: mathematically identical synchronous training
// (sum of per-worker gradients / N applied once per step).
TrainStats run_oracle(const TrainConfig& config, int workers);

}  // namespace embrace::core
