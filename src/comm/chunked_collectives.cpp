#include "comm/chunked_collectives.h"

#include <vector>

#include "comm/chunk_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace embrace::comm {

void allreduce_chunked(Communicator& comm, std::span<float> data,
                       int64_t chunk_bytes, ReduceOp op, const Codec* codec) {
  static obs::Counter& bytes_counter =
      obs::counter("comm.bytes{collective=allreduce_chunked}");
  static obs::Counter& calls_counter =
      obs::counter("comm.calls{collective=allreduce_chunked}");
  const int64_t payload = static_cast<int64_t>(data.size() * sizeof(float));
  bytes_counter.add(payload);
  calls_counter.increment();
  obs::ScopedSpan span("allreduce_chunked", "bytes", payload, "channel",
                       comm.channel_id());
  const int n = comm.size();
  if (n == 1) return;
  const int rank = comm.rank();
  const int64_t total = static_cast<int64_t>(data.size());
  // The largest block under chunk_range's contiguous partitioning (blocks
  // differ by at most one element) sets the rank-invariant tag stride.
  const int64_t max_block = total / n + (total % n > 0 ? 1 : 0);
  const int64_t kmax =
      ChunkPlan::over(max_block, chunk_bytes, sizeof(float)).num_chunks();
  const uint64_t base_tag = comm.reserve_tags(2 * (n - 1) * kmax);
  const int to = (rank + 1) % n;
  const int from = (rank - 1 + n) % n;
  std::vector<float> decode_scratch;
  std::vector<std::byte> wire_scratch;
  for (int64_t step = 0; step < 2 * (n - 1); ++step) {
    // Same block walk as the monolithic ring (reduce_scatter + allgather in
    // Communicator): reduce-scatter step s sends block (rank-s-1) and
    // receive-reduces block (rank-s-2); allgather step s forwards block
    // (rank-s) and receive-copies block (rank-s-1).
    const bool reduce_phase = step < n - 1;
    const int s = static_cast<int>(reduce_phase ? step : step - (n - 1));
    const int send_chunk = reduce_phase ? (rank - s - 1 + 2 * n) % n
                                        : (rank - s + 2 * n) % n;
    const int recv_chunk = reduce_phase ? (rank - s - 2 + 2 * n) % n
                                        : (rank - s - 1 + 2 * n) % n;
    const auto [sb, se] = comm.chunk_range(total, send_chunk);
    const auto [rb, re] = comm.chunk_range(total, recv_chunk);
    const auto tag = [&](int64_t slice) {
      return base_tag + static_cast<uint64_t>(step * kmax + slice);
    };
    const ChunkPlan sends = ChunkPlan::over(se - sb, chunk_bytes);
    if (codec != nullptr && !reduce_phase && s == 0) {
      // Reduce->gather transition: this rank now owns its fully-reduced
      // block in raw form, but every peer will receive
      // decode(encode(block)). Under a lossy codec the owner must project
      // its own copy through the codec — per send slice, since top-k
      // selects within a slice — or ranks end the collective with
      // different bits.
      for (int64_t k = 0; k < sends.num_chunks(); ++k) {
        const auto [b, e] = sends.chunk(k);
        std::span<float> slice = data.subspan(static_cast<size_t>(sb + b),
                                              static_cast<size_t>(e - b));
        wire_scratch.resize(static_cast<size_t>(
            codec->encoded_bytes(static_cast<int64_t>(slice.size()))));
        codec->encode_into(slice, wire_scratch.data());
        codec->decode(wire_scratch, slice);
      }
    }
    // Enqueue every slice send of the step first (fabric sends are async),
    // so the peer's receives pipeline behind them.
    for (int64_t k = 0; k < sends.num_chunks(); ++k) {
      const auto [b, e] = sends.chunk(k);
      const std::span<const float> slice = data.subspan(
          static_cast<size_t>(sb + b), static_cast<size_t>(e - b));
      if (codec != nullptr) {
        comm.send_bytes_block(to, tag(k),
                              codec_encode(*codec, comm.pool(), slice));
      } else {
        comm.send_float_block(to, tag(k), slice);
      }
    }
    const ChunkPlan recvs = ChunkPlan::over(re - rb, chunk_bytes);
    for (int64_t j = 0; j < recvs.num_chunks(); ++j) {
      const auto [b, e] = recvs.chunk(j);
      std::span<float> slice = data.subspan(static_cast<size_t>(rb + b),
                                            static_cast<size_t>(e - b));
      if (codec != nullptr) {
        Bytes wire = comm.recv_bytes_block(from, tag(j));
        if (reduce_phase) {
          decode_scratch.resize(slice.size());
          codec->decode(wire, decode_scratch);
          reduce_into(slice, decode_scratch, op);
        } else {
          codec->decode(wire, slice);
        }
        comm.pool().release(std::move(wire));
      } else if (reduce_phase) {
        comm.recv_reduce_block(from, tag(j), slice, op);
      } else {
        comm.recv_copy_block(from, tag(j), slice);
      }
    }
  }
}

}  // namespace embrace::comm
