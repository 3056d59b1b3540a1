#include "comm/sparse_collectives.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "comm/chunked_collectives.h"
#include "comm/hierarchical_collectives.h"
#include "common/error.h"

namespace embrace::comm {
namespace {

constexpr size_t kWireHeaderBytes = 3 * sizeof(int64_t);

// Packs `rows` into a wire buffer drawn from the communicator's pool: one
// serialization copy, no allocation in steady state. An *empty* payload
// (header only) skips the pool entirely — pooling it would burn a
// size-class slot and pool-stats churn on a round that moves no data.
Bytes pack_wire(Communicator& comm, const SparseRows& rows,
                const Codec* codec) {
  const size_t size = sparse_wire_bytes(rows, codec);
  Bytes buf = rows.empty() ? Bytes(size) : comm.pool().acquire(size);
  sparse_pack_wire_into(rows, codec, buf);
  return buf;
}

[[noreturn]] void fail_sections(const char* what, size_t offset,
                                size_t size) {
  std::ostringstream os;
  os << "malformed sectioned payload: " << what << " (offset " << offset
     << " of " << size << " bytes)";
  throw WireFormatError(os.str());
}

// Length of the sparse wire payload that starts `buf`, from its raw header.
// The fields are untrusted: bounds are division-based, as in
// SparseRows::parse_packed, so hostile nnz/dim values cannot wrap a size.
size_t leading_wire_bytes(std::span<const std::byte> buf, const Codec* codec,
                          size_t offset, size_t total) {
  if (buf.size() < kWireHeaderBytes) {
    fail_sections("truncated section header", offset, total);
  }
  int64_t header[3];
  std::memcpy(header, buf.data(), sizeof(header));
  const int64_t dim = header[1];
  const int64_t nnz = header[2];
  if (header[0] < 0 || dim < 0 || nnz < 0) {
    fail_sections("negative section header field", offset, total);
  }
  const size_t body = buf.size() - kWireHeaderBytes;
  if (static_cast<size_t>(nnz) > body / sizeof(int64_t) ||
      (nnz > 0 && dim > std::numeric_limits<int64_t>::max() / 4 / nnz)) {
    fail_sections("section exceeds payload", offset, total);
  }
  const int64_t elems = nnz * dim;
  const size_t values = codec != nullptr
                            ? static_cast<size_t>(codec->encoded_bytes(elems))
                            : static_cast<size_t>(elems) * sizeof(float);
  const size_t idx_bytes = static_cast<size_t>(nnz) * sizeof(int64_t);
  if (values > body - idx_bytes) {
    fail_sections("section exceeds payload", offset, total);
  }
  return kWireHeaderBytes + idx_bytes + values;
}

// Inverse of the encoded pack_wire.
SparseRows unpack_wire(std::span<const std::byte> buf, const Codec* codec) {
  if (codec == nullptr) return SparseRows::unpack(buf.data(), buf.size());
  EMBRACE_CHECK_GE(buf.size(), kWireHeaderBytes, << "truncated sparse wire");
  int64_t header[3];
  std::memcpy(header, buf.data(), sizeof(header));
  const int64_t num_total_rows = header[0];
  const int64_t dim = header[1];
  const int64_t nnz = header[2];
  EMBRACE_CHECK(num_total_rows >= 0 && dim >= 0 && nnz >= 0,
                << "negative sparse wire header field");
  const size_t idx_bytes = static_cast<size_t>(nnz) * sizeof(int64_t);
  EMBRACE_CHECK_EQ(
      buf.size(),
      kWireHeaderBytes + idx_bytes +
          static_cast<size_t>(codec->encoded_bytes(nnz * dim)),
      << "sparse wire size mismatch");
  std::vector<int64_t> indices(static_cast<size_t>(nnz));
  if (idx_bytes > 0) {
    std::memcpy(indices.data(), buf.data() + kWireHeaderBytes, idx_bytes);
  }
  Tensor values({nnz, dim});
  codec->decode(buf.subspan(kWireHeaderBytes + idx_bytes), values.flat());
  return SparseRows(num_total_rows, std::move(indices), std::move(values));
}

// Projects `rows` in place onto the codec's representable set
// (decode ∘ encode, no wire, no counters). Idempotent: packing a projected
// payload decodes back to the same values, which is how ranks that receive
// a result in wire form end up agreeing with ranks that computed it.
void codec_project(SparseRows& rows, const Codec& codec) {
  if (codec.lossless()) return;
  const std::span<float> vals = rows.mutable_values().flat();
  std::vector<std::byte> tmp(static_cast<size_t>(
      codec.encoded_bytes(static_cast<int64_t>(vals.size()))));
  codec.encode_into(vals, tmp.data());
  codec.decode(tmp, vals);
}

// One recursive-doubling merge: canonical lower-rank-payload-first concat,
// coalesced. Both partners of an exchange compute exactly this, so their
// accumulated values stay bitwise identical round after round — which is
// what lets every rank finish with the same bits without a final broadcast.
SparseRows merge_canonical(const SparseRows& lower, const SparseRows& higher) {
  return SparseRows::concat(lower, higher).coalesced();
}

// Exchanges `mine` with `partner` at `tag` and returns the merged result.
// With a lossy codec both sides must merge the *wire form* of the local
// payload too (not the exact one), or their accumulated values would
// diverge bitwise from what the partner holds.
SparseRows exchange_merge(Communicator& comm, int partner, uint64_t tag,
                          const SparseRows& mine, const Codec* codec) {
  Bytes wire = pack_wire(comm, mine, codec);
  const bool lossy = codec != nullptr && !codec->lossless();
  const SparseRows sent = lossy ? unpack_wire(wire, codec) : SparseRows();
  const SparseRows& local = lossy ? sent : mine;
  comm.send_bytes_block(partner, tag, std::move(wire));
  Bytes got = comm.recv_bytes_block(partner, tag);
  SparseRows theirs = unpack_wire(got, codec);
  comm.pool().release(std::move(got));
  return comm.rank() < partner ? merge_canonical(local, theirs)
                               : merge_canonical(theirs, local);
}

SparseRows sparse_allreduce_recursive_doubling(Communicator& comm,
                                               const SparseRows& mine,
                                               const Codec* codec) {
  const int n = comm.size();
  const int rank = comm.rank();
  // p = largest power of two <= n; ranks [p, n) are "extras" folded into
  // [0, p) before the exchange rounds and served the result afterwards.
  const int p = std::bit_floor(static_cast<unsigned>(n));
  const int rounds = std::countr_zero(static_cast<unsigned>(p));
  // Tag budget is a pure function of n (SPMD: every rank reserves the same
  // count at the same point): fold leg + `rounds` exchanges + return leg.
  const uint64_t base = comm.reserve_tags(rounds + 2);
  const uint64_t fold_tag = base;
  const uint64_t return_tag = base + static_cast<uint64_t>(rounds) + 1;

  if (rank >= p) {
    // Extra rank: contribute, then wait for the finished sum.
    comm.send_bytes_block(rank - p, fold_tag, pack_wire(comm, mine, codec));
    Bytes got = comm.recv_bytes_block(rank - p, return_tag);
    SparseRows total = unpack_wire(got, codec);
    comm.pool().release(std::move(got));
    return total;
  }

  SparseRows acc = mine.coalesced();
  if (rank + p < n) {
    Bytes got = comm.recv_bytes_block(rank + p, fold_tag);
    // This rank is the lower one of the fold pair by construction.
    acc = merge_canonical(acc, unpack_wire(got, codec));
    comm.pool().release(std::move(got));
  }
  for (int r = 0; r < rounds; ++r) {
    const int partner = rank ^ (1 << r);
    acc = exchange_merge(comm, partner, base + 1 + static_cast<uint64_t>(r),
                         acc, codec);
  }
  if (codec != nullptr) {
    // Project the finished sum so the extra ranks — which only ever see its
    // wire form — hold the same values as the ranks that computed it.
    codec_project(acc, *codec);
  }
  if (rank + p < n) {
    comm.send_bytes_block(rank + p, return_tag, pack_wire(comm, acc, codec));
  }
  return acc;
}

SparseRows sparse_allreduce_dense_ring(Communicator& comm,
                                       const SparseRows& mine,
                                       int64_t chunk_bytes,
                                       const Codec* codec) {
  Tensor dense = mine.to_dense();
  allreduce_chunked(comm, dense.flat(), chunk_bytes, ReduceOp::kSum, codec);
  return SparseRows::from_dense(dense);
}

}  // namespace

Bytes sparse_pack_wire(Communicator& comm, const SparseRows& rows,
                       const Codec* codec) {
  return pack_wire(comm, rows, codec);
}

// The sparse wire: the standard packed layout (SparseRows::pack_into), or
// with a codec the same layout with the values section run through it —
//   [num_total_rows:i64][dim:i64][nnz:i64][indices][encoded values]
// encoded_bytes() is value-independent, so the receiver can size-check the
// payload from the header alone. codec == nullptr is byte-identical to the
// pre-codec wire.
size_t sparse_wire_bytes(const SparseRows& rows, const Codec* codec) {
  if (codec == nullptr) return rows.packed_byte_size();
  const int64_t nnz = rows.nnz_rows();
  return kWireHeaderBytes + static_cast<size_t>(nnz) * sizeof(int64_t) +
         static_cast<size_t>(codec->encoded_bytes(nnz * rows.dim()));
}

void sparse_pack_wire_into(const SparseRows& rows, const Codec* codec,
                           std::span<std::byte> dst) {
  if (codec == nullptr) {
    rows.pack_into(dst.data(), dst.size());
    return;
  }
  EMBRACE_CHECK_EQ(dst.size(), sparse_wire_bytes(rows, codec),
                   << "sparse wire buffer size mismatch");
  const int64_t nnz = rows.nnz_rows();
  const size_t idx_bytes = static_cast<size_t>(nnz) * sizeof(int64_t);
  const int64_t header[3] = {rows.num_total_rows(), rows.dim(), nnz};
  std::byte* p = dst.data();
  std::memcpy(p, header, sizeof(header));
  p += sizeof(header);
  if (idx_bytes > 0) std::memcpy(p, rows.indices().data(), idx_bytes);
  codec->encode_into(rows.values().flat(), p + idx_bytes);
  codec_count_bytes(*codec, nnz * rows.dim());
}

std::vector<std::span<const std::byte>> split_sections(
    std::span<const std::byte> buf, std::span<const size_t> sizes) {
  std::vector<std::span<const std::byte>> out;
  out.reserve(sizes.size());
  size_t offset = 0;
  for (const size_t n : sizes) {
    if (n > buf.size() - offset) {
      fail_sections("section exceeds payload", offset, buf.size());
    }
    out.push_back(buf.subspan(offset, n));
    offset += n;
  }
  if (offset != buf.size()) {
    fail_sections("trailing bytes after last section", offset, buf.size());
  }
  return out;
}

std::vector<std::span<const std::byte>> split_sparse_wire(
    std::span<const std::byte> buf, std::span<const Codec* const> codecs) {
  std::vector<std::span<const std::byte>> out;
  out.reserve(codecs.size());
  size_t offset = 0;
  for (const Codec* codec : codecs) {
    const size_t n =
        leading_wire_bytes(buf.subspan(offset), codec, offset, buf.size());
    out.push_back(buf.subspan(offset, n));
    offset += n;
  }
  if (offset != buf.size()) {
    fail_sections("trailing bytes after last section", offset, buf.size());
  }
  return out;
}

SparseRows sparse_unpack_wire(std::span<const std::byte> buf,
                              const Codec* codec) {
  return unpack_wire(buf, codec);
}

const char* sparse_algo_name(SparseAlgoKind k) {
  switch (k) {
    case SparseAlgoKind::kSplitAllgather: return "allgather";
    case SparseAlgoKind::kRecursiveDoubling: return "recursive-doubling";
    case SparseAlgoKind::kDenseRing: return "dense";
    case SparseAlgoKind::kTwoLevelRing: return "two-level";
  }
  return "?";
}

SparseRows sparse_allgather(Communicator& comm, const SparseRows& mine,
                            const Codec* codec) {
  auto buffers = comm.allgatherv_shared(pack_wire(comm, mine, codec));
  SparseRows out;
  if (codec == nullptr) {
    // Zero-copy exchange: peers read this rank's packed payload in place,
    // and the received views are parsed without materializing per-peer
    // SparseRows. Single-pass assemble: total nnz summed up front, every
    // payload copied exactly once (the old pairwise concat re-copied the
    // accumulated prefix per peer).
    std::vector<SparseRows::WireView> views;
    views.reserve(buffers.size());
    for (const auto& buf : buffers) {
      views.push_back(SparseRows::parse_packed(buf->data(), buf->size()));
    }
    out = SparseRows::concat_views(mine.num_total_rows(), mine.dim(), views);
  } else {
    // Encoded wire: decode every payload — this rank's own included, so all
    // ranks assemble from identical (wire-form) values — straight into one
    // rank-order concatenation.
    std::vector<SparseRows> parts;
    parts.reserve(buffers.size());
    int64_t total_nnz = 0;
    for (const auto& buf : buffers) {
      parts.push_back(unpack_wire({buf->data(), buf->size()}, codec));
      total_nnz += parts.back().nnz_rows();
    }
    std::vector<int64_t> indices;
    indices.reserve(static_cast<size_t>(total_nnz));
    Tensor values({total_nnz, mine.dim()});
    int64_t row = 0;
    for (const SparseRows& part : parts) {
      indices.insert(indices.end(), part.indices().begin(),
                     part.indices().end());
      const auto src = part.values().flat();
      std::copy(src.begin(), src.end(),
                values.flat().begin() + row * mine.dim());
      row += part.nnz_rows();
    }
    out = SparseRows(mine.num_total_rows(), std::move(indices),
                     std::move(values));
  }
  // Shared payloads are read-only for everyone; dropping the reference lets
  // the shared_ptr's final release free them. Recycling them into the pool
  // keyed on use_count() would race with the originator's post-send reads.
  for (SharedBytes& buf : buffers) buf.reset();
  return out;
}

SparseRows sparse_allreduce(Communicator& comm, const SparseRows& mine,
                            SparseAlgoKind algo, int64_t chunk_bytes,
                            const Codec* codec) {
  if (comm.size() == 1) return mine;
  switch (algo) {
    case SparseAlgoKind::kSplitAllgather:
      return sparse_allgather(comm, mine, codec);
    case SparseAlgoKind::kRecursiveDoubling:
      return sparse_allreduce_recursive_doubling(comm, mine, codec);
    case SparseAlgoKind::kDenseRing:
      return sparse_allreduce_dense_ring(comm, mine, chunk_bytes, codec);
    case SparseAlgoKind::kTwoLevelRing:
      // Without a CommGroup there is no tier structure to exploit; the
      // dense ring is the same wire format on a flat world.
      return sparse_allreduce_dense_ring(comm, mine, chunk_bytes, codec);
  }
  EMBRACE_CHECK(false, << "unknown SparseAlgoKind");
  return mine;
}

SparseRows sparse_allreduce(CommGroup& group, const SparseRows& mine,
                            SparseAlgoKind algo, int64_t chunk_bytes,
                            const Codec* codec) {
  EMBRACE_CHECK(group.world != nullptr);
  if (algo == SparseAlgoKind::kTwoLevelRing && group.two_level()) {
    Tensor dense = mine.to_dense();
    hierarchical_allreduce(group, dense.flat(), ReduceOp::kSum, codec,
                           chunk_bytes);
    return SparseRows::from_dense(dense);
  }
  return sparse_allreduce(*group.world, mine, algo, chunk_bytes, codec);
}

}  // namespace embrace::comm
