#include "embrace/partitioned_embedding.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "comm/chunked_collectives.h"
#include "comm/sparse_collectives.h"
#include "common/error.h"
#include "embrace/hot_row_cache.h"
#include "obs/metrics.h"

namespace embrace::core {
namespace {

// Per-rank logical payload bytes entering the embedding AlltoAlls, split by
// leg. bench_cache compares these between cached and uncached runs — the
// cache's whole value proposition is shrinking exactly these counters.
obs::Counter& lookup_bytes_counter() {
  static obs::Counter& c = obs::counter("embed.exchange.bytes{path=lookup}");
  return c;
}

obs::Counter& grad_bytes_counter() {
  static obs::Counter& c = obs::counter("embed.exchange.bytes{path=grad}");
  return c;
}

// Reads `n` int64s from a wire buffer. Empty id slices are normal (a rank
// may own no rows of a batch); empty vectors may hand memcpy a null
// pointer, which is UB even at size 0.
std::vector<int64_t> read_ids(const std::byte* p, size_t n) {
  std::vector<int64_t> ids(n);
  if (n > 0) std::memcpy(ids.data(), p, n * sizeof(int64_t));
  return ids;
}

[[noreturn]] void fail_ids(const char* what, int worker, size_t size) {
  throw WireFormatError(std::string("malformed id gather payload from rank ") +
                        std::to_string(worker) + ": " + what + " (" +
                        std::to_string(size) + " bytes)");
}

// The gradient leg of an exchange, shared by exchange_grad and by a lookup
// that carries gradients: every table's cold part, sliced per peer into the
// columns that peer owns and packed back to back in the sparse wire format
// (values codec-encoded when a codec is active), and on the receiving side
// the rank-ordered sum of the peers' sections.
class GradSections {
 public:
  // Hot rows never touch the AlltoAll: their gradients park in the cache's
  // pending buffer until the next hotsync AllReduce. The membership is
  // rank-agreed, so every rank ships the same cold row set.
  GradSections(const comm::Communicator& comm, std::span<const TableGrad> tables)
      : tables_(tables),
        cold_storage_(tables.size()),
        cold_(tables.size()),
        codecs_(tables.size()) {
    for (size_t t = 0; t < tables.size(); ++t) {
      const TableGrad& tg = tables[t];
      EMBRACE_CHECK(tg.table.world() == comm.size() &&
                        tg.table.rank() == comm.rank(),
                    << "table shard does not belong to this communicator");
      EMBRACE_CHECK_EQ(tg.part.num_total_rows(), tg.table.vocab());
      EMBRACE_CHECK_EQ(tg.part.dim(), tg.table.dim());
      codecs_[t] = tg.codec;
      cold_[t] = &tg.part;
      HotRowCache* cache = tg.cache;
      if (cache != nullptr && cache->enabled() && cache->hot_count() > 0) {
        auto [hot, rest] = tg.part.split_by_membership(cache->hot_rows());
        cache->accumulate(std::move(hot));
        cold_storage_[t] = std::move(rest);
        cold_[t] = &cold_storage_[t];
      }
    }
  }

  // Rank r's payload: `prefix` bytes for the caller to fill, then every
  // table's column slice for rank r, back to back.
  comm::Bytes pack(comm::Communicator& comm, int r, size_t prefix) const {
    std::vector<SparseRows> slices;
    std::vector<size_t> sizes;
    slices.reserve(tables_.size());
    sizes.reserve(tables_.size());
    size_t size = prefix;
    bool any_rows = false;
    for (size_t t = 0; t < tables_.size(); ++t) {
      const auto [c0, c1] = tables_[t].table.col_range(r);
      slices.push_back(cold_[t]->slice_columns(c0, c1));
      sizes.push_back(comm::sparse_wire_bytes(slices[t], codecs_[t]));
      size += sizes[t];
      any_rows |= !slices[t].empty();
    }
    // An all-empty payload skips the pool, as comm::sparse_pack_wire does.
    comm::Bytes buf = prefix > 0 || any_rows ? comm.pool().acquire(size)
                                             : comm::Bytes(size);
    size_t offset = prefix;
    for (size_t t = 0; t < tables_.size(); ++t) {
      comm::sparse_pack_wire_into(slices[t], codecs_[t],
                                  std::span(buf).subspan(offset, sizes[t]));
      offset += sizes[t];
    }
    return buf;
  }

  // Sums every worker's contribution to my shards, in rank order
  // (received[r] holds rank r's sections); returns each table's coalesced
  // shard gradient. Raw sections are parsed in place and assembled in one
  // pass; encoded sections cannot be viewed in place, so they are decoded
  // first.
  std::vector<SparseRows> sum(
      std::span<const std::span<const std::byte>> received) const {
    std::vector<std::vector<SparseRows::WireView>> views(tables_.size());
    std::vector<SparseRows> decoded;
    for (const TableGrad& tg : tables_) {
      decoded.push_back(
          SparseRows::empty(tg.table.vocab(), tg.table.shard_width()));
    }
    for (const std::span<const std::byte> buf : received) {
      const auto parts = comm::split_sparse_wire(buf, codecs_);
      for (size_t t = 0; t < tables_.size(); ++t) {
        if (codecs_[t] != nullptr) {
          decoded[t] = SparseRows::concat(
              decoded[t], comm::sparse_unpack_wire(parts[t], codecs_[t]));
        } else {
          views[t].push_back(
              SparseRows::parse_packed(parts[t].data(), parts[t].size()));
        }
      }
    }
    std::vector<SparseRows> out;
    out.reserve(tables_.size());
    for (size_t t = 0; t < tables_.size(); ++t) {
      const PartitionedEmbedding& pe = tables_[t].table;
      out.push_back(codecs_[t] != nullptr
                        ? decoded[t].coalesced()
                        : SparseRows::concat_views(pe.vocab(), pe.shard_width(),
                                                   views[t])
                              .coalesced());
    }
    return out;
  }

 private:
  std::span<const TableGrad> tables_;
  std::vector<SparseRows> cold_storage_;
  std::vector<const SparseRows*> cold_;
  std::vector<const comm::Codec*> codecs_;
};

}  // namespace

PartitionedEmbedding::PartitionedEmbedding(int64_t vocab, int64_t dim,
                                           int rank, int world,
                                           Rng master_rng)
    : vocab_(vocab), dim_(dim), rank_(rank), world_(world) {
  EMBRACE_CHECK(rank >= 0 && rank < world);
  EMBRACE_CHECK_GE(dim, world, << "need at least one column per rank");
  // Generate the full table deterministically, keep our columns. (Memory
  // cost is transient and fine at functional-model scale; a production
  // implementation would stream-generate the slice.)
  Tensor full = Tensor::randn({vocab, dim}, master_rng,
                              1.0f / std::sqrt(static_cast<float>(dim)));
  const auto [c0, c1] = col_range(rank);
  shard_ = Tensor({vocab, c1 - c0});
  for (int64_t r = 0; r < vocab; ++r) {
    auto src = full.row(r);
    auto dst = shard_.row(r);
    for (int64_t c = c0; c < c1; ++c) dst[c - c0] = src[c];
  }
}

std::pair<int64_t, int64_t> PartitionedEmbedding::col_range(int r) const {
  return {dim_ * r / world_, dim_ * (r + 1) / world_};
}

std::vector<std::vector<std::vector<int64_t>>>
PartitionedEmbedding::allgather_ids(
    comm::Communicator& comm, std::span<const std::vector<int64_t>> my_ids,
    int64_t vocab) {
  const auto tables = static_cast<int64_t>(my_ids.size());
  EMBRACE_CHECK_GE(tables, 1);
  EMBRACE_CHECK(vocab > 0 &&
                tables <= std::numeric_limits<int64_t>::max() / vocab);
  size_t words = 0;
  for (const auto& ids : my_ids) words += ids.size();
  comm::Bytes mine = comm.pool().acquire(words * sizeof(int64_t));
  // Table t's ids travel as id + t·vocab, back to back in table order.
  std::byte* p = mine.data();
  for (int64_t t = 0; t < tables; ++t) {
    for (const int64_t id : my_ids[static_cast<size_t>(t)]) {
      EMBRACE_CHECK(tables == 1 || (id >= 0 && id < vocab),
                    << "id " << id << " outside the vocab of " << vocab);
      const int64_t tagged = id + t * vocab;
      std::memcpy(p, &tagged, sizeof(tagged));
      p += sizeof(tagged);
    }
  }
  // Zero-copy fan-out: peers read this rank's id payload in place.
  auto buffers = comm.allgatherv_shared(std::move(mine));
  std::vector<std::vector<std::vector<int64_t>>> out(
      static_cast<size_t>(tables),
      std::vector<std::vector<int64_t>>(buffers.size()));
  for (size_t w = 0; w < buffers.size(); ++w) {
    const comm::Bytes& b = *buffers[w];
    if (b.size() % sizeof(int64_t) != 0) {
      fail_ids("not a whole number of ids", static_cast<int>(w), b.size());
    }
    std::vector<int64_t> ids = read_ids(b.data(), b.size() / sizeof(int64_t));
    // Shared payloads are read-only; the shared_ptr's final release frees
    // them (recycling via use_count() would race with the originator).
    buffers[w].reset();
    if (tables == 1) {
      out[0][w] = std::move(ids);
      continue;
    }
    int64_t t = 0;
    for (const int64_t v : ids) {
      if (v < t * vocab || v >= tables * vocab) {
        fail_ids("ids out of table order", static_cast<int>(w), b.size());
      }
      t = v / vocab;
      out[static_cast<size_t>(t)][w].push_back(v - t * vocab);
    }
  }
  return out;
}

std::vector<std::vector<int64_t>> PartitionedEmbedding::allgather_ids(
    comm::Communicator& comm, const std::vector<int64_t>& my_ids) {
  return std::move(allgather_ids(comm, std::span(&my_ids, 1),
                                 std::numeric_limits<int64_t>::max())[0]);
}

PartitionedEmbedding::LookupResult PartitionedEmbedding::distributed_lookup(
    comm::Communicator& comm, std::span<const TableLookup> tables,
    std::span<const TableGrad> carry) {
  const int world = comm.size();
  const int rank = comm.rank();
  // Per table: the ids each worker's section carries, and the positions of
  // my batch that the wire serves (all of them when uncached).
  struct Section {
    const std::vector<std::vector<int64_t>>* ids = nullptr;
    std::vector<std::vector<int64_t>> cold_ids;
    std::vector<int64_t> wire_pos;
    bool split = false;
  };
  std::vector<Section> sections(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    const TableLookup& tl = tables[t];
    EMBRACE_CHECK(tl.table.world_ == world && tl.table.rank_ == rank,
                  << "table shard does not belong to this communicator");
    EMBRACE_CHECK_EQ(static_cast<int>(tl.all_ids.size()), world);
    EMBRACE_CHECK(tl.all_ids[static_cast<size_t>(rank)] == tl.my_ids,
                  << "gathered ids inconsistent with my ids");
    HotRowCache* cache = tl.cache;
    const bool cached = cache != nullptr && cache->enabled();
    // Feed the refresh vote even while the hot set is still empty — the
    // counters are what bootstrap the first promotion epoch.
    if (cached) cache->record_access(tl.my_ids);
    Section& s = sections[t];
    s.split = cached && cache->hot_count() > 0;
    s.ids = &tl.all_ids;
    // With a live hot set, every rank filters every worker's id list
    // against the same rank-agreed membership: the shrunken AlltoAll
    // carries cold ids only and stays SPMD-consistent by construction.
    if (s.split) {
      s.cold_ids.resize(tl.all_ids.size());
      for (size_t w = 0; w < tl.all_ids.size(); ++w) {
        s.cold_ids[w].reserve(tl.all_ids[w].size());
        for (int64_t id : tl.all_ids[w]) {
          if (!cache->is_hot(id)) s.cold_ids[w].push_back(id);
        }
      }
      s.ids = &s.cold_ids;
    }
    s.wire_pos.reserve(tl.my_ids.size());
    for (size_t k = 0; k < tl.my_ids.size(); ++k) {
      if (!s.split || !cache->is_hot(tl.my_ids[k])) {
        s.wire_pos.push_back(static_cast<int64_t>(k));
      }
    }
  }
  // Look up every worker's (cold) ids in my column shards, writing each
  // table's rows straight into that worker's payload, followed by any
  // carried gradient sections that worker owns.
  std::optional<GradSections> carried;
  if (!carry.empty()) carried.emplace(comm, carry);
  std::vector<comm::Bytes> payloads(static_cast<size_t>(world));
  int64_t wire_bytes = 0, grad_wire_bytes = 0;
  for (int w = 0; w < world; ++w) {
    size_t size = 0;
    for (size_t t = 0; t < tables.size(); ++t) {
      size += (*sections[t].ids)[static_cast<size_t>(w)].size() *
              static_cast<size_t>(tables[t].table.shard_width()) *
              sizeof(float);
    }
    comm::Bytes& buf = payloads[static_cast<size_t>(w)];
    buf = carried ? carried->pack(comm, w, size) : comm.pool().acquire(size);
    std::byte* p = buf.data();
    for (size_t t = 0; t < tables.size(); ++t) {
      const PartitionedEmbedding& pe = tables[t].table;
      const size_t row_bytes =
          static_cast<size_t>(pe.shard_width()) * sizeof(float);
      for (int64_t id : (*sections[t].ids)[static_cast<size_t>(w)]) {
        EMBRACE_CHECK(id >= 0 && id < pe.vocab_, << "id out of vocab");
        std::memcpy(p, pe.shard_.row(id).data(), row_bytes);
        p += row_bytes;
      }
    }
    wire_bytes += static_cast<int64_t>(size);
    grad_wire_bytes += static_cast<int64_t>(buf.size() - size);
  }
  lookup_bytes_counter().add(wire_bytes);
  if (carried) grad_bytes_counter().add(grad_wire_bytes);
  auto received = comm.alltoallv(std::move(payloads));
  // Assemble my batch's full-dim vectors from the column slices, reading the
  // wire buffers in place; the carried sections follow the lookup sections.
  LookupResult result;
  std::vector<Tensor>& out = result.rows;
  out.reserve(tables.size());
  for (const TableLookup& tl : tables) {
    out.emplace_back(std::vector<int64_t>{
        static_cast<int64_t>(tl.my_ids.size()), tl.table.dim_});
  }
  std::vector<size_t> sizes(tables.size());
  std::vector<std::span<const std::byte>> grad_parts(
      static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    std::span<const std::byte> buf(received[static_cast<size_t>(r)]);
    size_t lookup_size = 0;
    for (size_t t = 0; t < tables.size(); ++t) {
      const auto [c0, c1] = tables[t].table.col_range(r);
      sizes[t] = sections[t].wire_pos.size() * static_cast<size_t>(c1 - c0) *
                 sizeof(float);
      lookup_size += sizes[t];
    }
    if (carried) {
      // A payload short of its lookup sections stays short, so
      // split_sections rejects it.
      const size_t cut = std::min(lookup_size, buf.size());
      grad_parts[static_cast<size_t>(r)] = buf.subspan(cut);
      buf = buf.first(cut);
    }
    const auto parts = comm::split_sections(buf, sizes);
    for (size_t t = 0; t < tables.size(); ++t) {
      const auto [c0, c1] = tables[t].table.col_range(r);
      const size_t row_bytes = static_cast<size_t>(c1 - c0) * sizeof(float);
      const std::byte* src = parts[t].data();
      for (int64_t pos : sections[t].wire_pos) {
        std::memcpy(out[t].row(pos).data() + c0, src, row_bytes);
        src += row_bytes;
      }
    }
  }
  if (carried) result.grads = carried->sum(grad_parts);
  for (comm::Bytes& buf : received) comm.pool().release(std::move(buf));
  for (size_t t = 0; t < tables.size(); ++t) {
    HotRowCache* cache = tables[t].cache;
    if (cache == nullptr || !cache->enabled()) continue;
    const std::vector<int64_t>& my_ids = tables[t].my_ids;
    const int64_t wire = static_cast<int64_t>(sections[t].wire_pos.size());
    if (sections[t].split) {
      // Hot positions come straight out of the local replica, full-dim.
      for (size_t k = 0; k < my_ids.size(); ++k) {
        if (!cache->is_hot(my_ids[k])) continue;
        auto src = cache->row(my_ids[k]);
        auto dst = out[t].row(static_cast<int64_t>(k));
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    static obs::Counter& hits = obs::counter("embed.cache.hits");
    static obs::Counter& misses = obs::counter("embed.cache.misses");
    hits.add(static_cast<int64_t>(my_ids.size()) - wire);
    misses.add(wire);
  }
  return result;
}

Tensor PartitionedEmbedding::distributed_lookup(
    comm::Communicator& comm, const std::vector<std::vector<int64_t>>& all_ids,
    const std::vector<int64_t>& my_ids, const EmbedExchange& ex) const {
  const TableLookup one{
      .table = *this, .all_ids = all_ids, .my_ids = my_ids, .cache = ex.cache};
  return std::move(distributed_lookup(comm, std::span(&one, 1)).rows[0]);
}

std::vector<SparseRows> PartitionedEmbedding::exchange_grad(
    comm::Communicator& comm, std::span<const TableGrad> tables,
    std::span<float> dense) {
  const GradSections grads(comm, tables);
  const size_t prefix = dense.size_bytes();
  std::vector<comm::Bytes> payloads(static_cast<size_t>(comm.size()));
  int64_t wire_bytes = 0;
  for (int r = 0; r < comm.size(); ++r) {
    comm::Bytes& buf = payloads[static_cast<size_t>(r)];
    buf = grads.pack(comm, r, prefix);
    if (prefix > 0) std::memcpy(buf.data(), dense.data(), prefix);
    wire_bytes += static_cast<int64_t>(buf.size() - prefix);
  }
  grad_bytes_counter().add(wire_bytes);
  auto received = comm.alltoallv(std::move(payloads));
  // Each payload is [dense prefix][table sections...]; the prefix sits at
  // offset 0, so it reads in place as floats.
  std::vector<std::span<const std::byte>> parts;
  std::vector<std::span<const float>> heads;
  parts.reserve(received.size());
  heads.reserve(received.size());
  for (size_t r = 0; r < received.size(); ++r) {
    const std::span<const std::byte> buf(received[r]);
    if (buf.size() < prefix) {
      throw WireFormatError("gradient payload from rank " + std::to_string(r) +
                            " shorter than its " + std::to_string(prefix) +
                            "-byte dense prefix (" +
                            std::to_string(buf.size()) + " bytes)");
    }
    heads.push_back(
        {reinterpret_cast<const float*>(buf.data()), dense.size()});
    parts.push_back(buf.subspan(prefix));
  }
  std::vector<SparseRows> out = grads.sum(parts);
  comm::fold_rank_order(dense, heads, comm::ReduceOp::kSum);
  for (comm::Bytes& buf : received) comm.pool().release(std::move(buf));
  return out;
}

SparseRows PartitionedEmbedding::exchange_grad(comm::Communicator& comm,
                                               const SparseRows& part,
                                               const EmbedExchange& ex) const {
  const TableGrad one{
      .table = *this, .part = part, .codec = ex.codec, .cache = ex.cache};
  return std::move(exchange_grad(comm, std::span(&one, 1))[0]);
}

// --- RowPartitionedEmbedding ---

RowPartitionedEmbedding::RowPartitionedEmbedding(int64_t vocab, int64_t dim,
                                                 int world)
    : vocab_(vocab), dim_(dim), world_(world) {
  EMBRACE_CHECK_GE(vocab, world);
  (void)dim_;
}

std::pair<int64_t, int64_t> RowPartitionedEmbedding::row_range(int r) const {
  return {vocab_ * r / world_, vocab_ * (r + 1) / world_};
}

int RowPartitionedEmbedding::owner_of(int64_t row) const {
  EMBRACE_CHECK(row >= 0 && row < vocab_);
  int r = static_cast<int>(row * world_ / vocab_);
  while (r > 0 && row < row_range(r).first) --r;
  while (r + 1 < world_ && row >= row_range(r).second) ++r;
  return r;
}

std::vector<int64_t> RowPartitionedEmbedding::shard_load(
    const std::vector<int64_t>& ids) const {
  std::vector<int64_t> load(static_cast<size_t>(world_), 0);
  for (int64_t id : ids) ++load[static_cast<size_t>(owner_of(id))];
  return load;
}

}  // namespace embrace::core
