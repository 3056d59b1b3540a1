// Column-wise partitioned embedding table — the model-parallel half of
// Sparsity-aware Hybrid Communication (paper §4.1.1).
//
// Each rank owns columns [col_begin, col_end) of the full (vocab × dim)
// table. The paper chooses column-wise over row-wise partitioning because
// Zipf-skewed word frequencies would unbalance row shards, while every
// column shard serves every lookup equally (the partitioning ablation bench
// measures exactly this).
//
// Per training step:
//   forward  — every rank looks up ALL workers' token ids in its column
//              shard, then an AlltoAll redistributes the slices so each
//              rank assembles full-dim vectors for its own batch;
//   backward — each rank column-splits the gradient rows produced by its
//              batch and AlltoAlls them back to the owning shards.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/codec.h"
#include "comm/communicator.h"
#include "common/rng.h"
#include "tensor/sparse_rows.h"
#include "tensor/tensor.h"

namespace embrace::core {

class HotRowCache;

// Options for one embedding exchange (lookup or gradient leg), passed by
// const ref so adding a knob never touches call sites that don't care:
//
//   pe.exchange_grad(comm, part, {.codec = codec, .cache = cache});
//
// `codec`: compresses gradient value bytes on the wire (gradient leg only —
// lookups always ship exact parameters). `cache`: a hot-row cache
// (DESIGN.md §15) splits the exchange — hot rows are served/accumulated
// locally, only cold rows travel. The cache is mutated (access counters,
// pending gradients), so exchanges carrying one must run on the comm thread
// like every other cache touch. Either leg is one flat AlltoAllv on `comm`
// whatever the topology: the fabric charges α once per round, and the flat
// exchange is one round.
struct EmbedExchange {
  const comm::Codec* codec = nullptr;
  HotRowCache* cache = nullptr;
};

class PartitionedEmbedding;

// One table's section of a merged lookup: this rank's shard, every
// worker's gathered ids (all_ids[rank] == my_ids) and the table's cache.
struct TableLookup {
  const PartitionedEmbedding& table;
  const std::vector<std::vector<int64_t>>& all_ids;
  const std::vector<int64_t>& my_ids;
  HotRowCache* cache = nullptr;
};

// One table's section of a merged gradient exchange.
struct TableGrad {
  const PartitionedEmbedding& table;
  const SparseRows& part;
  const comm::Codec* codec = nullptr;
  HotRowCache* cache = nullptr;
};

class PartitionedEmbedding {
 public:
  // Builds the shard for `rank` of `world`. `master_rng` must be identical
  // across ranks: the full table is generated deterministically and each
  // rank keeps its columns, so the ensemble equals one replicated table.
  PartitionedEmbedding(int64_t vocab, int64_t dim, int rank, int world,
                       Rng master_rng);

  int64_t vocab() const { return vocab_; }
  int64_t dim() const { return dim_; }
  int rank() const { return rank_; }
  int world() const { return world_; }
  std::pair<int64_t, int64_t> col_range(int r) const;
  int64_t shard_width() const { return shard_.cols(); }
  Tensor& shard() { return shard_; }
  const Tensor& shard() const { return shard_; }

  // The multi-table forms below move every table's section in ONE
  // collective: each peer's payload is the concatenation of that peer's
  // per-table sections, in table order, with no framing (the receiver
  // sizes each section itself; comm/sparse_collectives.h split_*). The
  // single-table signatures are their one-table case, so a one-table
  // exchange keeps the exact wire it always had.

  // Gathers every worker's flat token ids (metadata exchange preceding the
  // lookup; also provides Algorithm 1's gathered D_cur / D_next). Returns
  // [table][worker] ids. Table t's ids, all in [0, vocab), travel as
  // id + t·vocab, so the receiver splits a payload into its tables by id
  // range alone: the wire carries no section lengths, and one table's
  // payload is its plain id list. A payload out of table order throws
  // WireFormatError.
  static std::vector<std::vector<std::vector<int64_t>>> allgather_ids(
      comm::Communicator& comm, std::span<const std::vector<int64_t>> my_ids,
      int64_t vocab);
  static std::vector<std::vector<int64_t>> allgather_ids(
      comm::Communicator& comm, const std::vector<int64_t>& my_ids);

  // Hybrid-communication forward: returns, per table, the full-dim lookup
  // result for my_ids ((my_ids.size() × dim)). With a cache, hot ids are
  // served from the local replica (counted as embed.cache.hits) and only
  // cold ids enter the AlltoAll — every rank filters every worker's id
  // list against the same rank-agreed membership, so the shrunken exchange
  // stays SPMD-consistent. A section of the wrong size throws
  // WireFormatError.
  //
  // `carry` rides a gradient exchange on the same AlltoAll: each peer's
  // payload is its lookup sections followed by the exchange_grad sections
  // it owns, and `grads` returns, per carried table, bitwise what
  // exchange_grad(comm, carry) would (empty without a carry).
  // EmbRace ships step s's delayed gradient inside step s+1's lookup this
  // way. With no carry the wire is the plain lookup's.
  struct LookupResult {
    std::vector<Tensor> rows;
    std::vector<SparseRows> grads;
  };
  static LookupResult distributed_lookup(comm::Communicator& comm,
                                         std::span<const TableLookup> tables,
                                         std::span<const TableGrad> carry = {});
  Tensor distributed_lookup(comm::Communicator& comm,
                            const std::vector<std::vector<int64_t>>& all_ids,
                            const std::vector<int64_t>& my_ids,
                            const EmbedExchange& ex = {}) const;

  // Hybrid-communication backward: each table's `part` holds full-dim rows
  // over the vocab (this rank's contribution, coalesced or not). Exchanges
  // column slices; returns, per table, the *coalesced* gradient for this
  // rank's shard (rows over vocab × shard_width), summed over all workers'
  // contributions. A table's codec compresses its slices' values sections
  // on the wire (comm/sparse_collectives.h contract; gradients only — the
  // forward lookup always ships exact parameters). Lossy codecs quantize
  // once per slice here (a single hop), so pair them with error feedback
  // upstream. With a cache, the hot-row part of `part` is accumulated into
  // the cache's pending sync buffer instead of travelling; the returned
  // shard gradient covers cold rows only.
  //
  // `dense` rides the same AlltoAllv (DESIGN.md §10, §16): this rank's
  // buffer is a fixed-size prefix of every peer's payload, ahead of the
  // table sections, and on return `dense` holds the sum of every rank's in
  // rank order 0..N-1 (comm::fold_rank_order), bitwise what
  // comm::one_shot_walk returns. Every rank passes the same size; a payload
  // shorter than its prefix throws WireFormatError. Empty: the plain
  // exchange's wire.
  static std::vector<SparseRows> exchange_grad(
      comm::Communicator& comm, std::span<const TableGrad> tables,
      std::span<float> dense = {});
  SparseRows exchange_grad(comm::Communicator& comm, const SparseRows& part,
                           const EmbedExchange& ex = {}) const;

 private:
  int64_t vocab_;
  int64_t dim_;
  int rank_;
  int world_;
  Tensor shard_;  // (vocab × shard_width)
};

// Row-wise partitioned embedding — the alternative the paper argues
// against; implemented for the partitioning ablation. Rank r owns rows
// [row_begin, row_end). Only the traffic-relevant operation is provided:
// routing a batch of ids to owning shards (whose balance the ablation
// measures).
class RowPartitionedEmbedding {
 public:
  RowPartitionedEmbedding(int64_t vocab, int64_t dim, int world);

  std::pair<int64_t, int64_t> row_range(int r) const;
  int owner_of(int64_t row) const;
  // Number of lookups each shard serves for this id batch.
  std::vector<int64_t> shard_load(const std::vector<int64_t>& ids) const;

 private:
  int64_t vocab_;
  int64_t dim_;
  int world_;
};

}  // namespace embrace::core
