// Pluggable gradient-compression codecs for the wire (DESIGN.md §14).
//
// A Codec turns a block of floats into a (usually smaller) byte payload and
// back. The collectives apply it per chunk (ChunkedAllReduce) or per wire
// payload (sparse / hierarchical collectives); the trainer pairs the lossy
// kinds with rank-local error-feedback residuals so the dropped mass is
// re-injected into later steps instead of being lost.
//
// Contract every codec must honor:
//   * encoded_bytes(elems) is a pure function of the element count — never
//     of the values — so all ranks can size each other's payloads without
//     negotiation, and reduce-order stays rank-agreed.
//   * encode/decode are deterministic (same input bytes -> same output
//     bytes on every rank), so collectives that re-encode partial sums
//     (recursive doubling, ring reduce) remain bitwise-reproducible.
//   * decode(encode(x)) == x bitwise when lossless() is true.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "comm/buffer_pool.h"

namespace embrace::comm {

enum class CodecKind {
  kIdentity = 0,  // raw fp32 pass-through
  kFp16 = 1,      // IEEE-754 binary16 cast, round-to-nearest-even
  kBf16 = 2,      // bfloat16 cast, round-to-nearest-even
  kTopK = 3,      // keep the top |v| fraction, zero the rest
};
inline constexpr int kNumCodecKinds = 4;

const char* codec_kind_name(CodecKind kind);

class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecKind kind() const = 0;
  // True when decode(encode(x)) reproduces x bitwise for every input.
  virtual bool lossless() const = 0;
  // Wire bytes for a block of `elems` floats (value-independent, see above).
  virtual int64_t encoded_bytes(int64_t elems) const = 0;
  // Writes exactly encoded_bytes(src.size()) bytes at dst.
  virtual void encode_into(std::span<const float> src, std::byte* dst) const = 0;
  // Inverse of encode_into: src must be encoded_bytes(dst.size()) bytes.
  virtual void decode(std::span<const std::byte> src,
                      std::span<float> dst) const = 0;
};

// Builds a codec. `topk_fraction` (kept fraction of elements, in (0, 1])
// only applies to kTopK; top-k keeps at least one element of any non-empty
// block.
std::unique_ptr<Codec> make_codec(CodecKind kind, double topk_fraction = 0.2);

// Encodes `src` into a pool-staged buffer and bumps the
// comm.codec.bytes_in/bytes_out{codec=…} counters (bytes_in is the raw fp32
// size, bytes_out the wire size — their ratio is the compression ratio
// perf_report prints).
Bytes codec_encode(const Codec& codec, BufferPool& pool,
                   std::span<const float> src);

// Bumps the same counters for a block of `elems` floats encoded in place by
// a caller that manages its own buffer (codec_encode does this itself).
void codec_count_bytes(const Codec& codec, int64_t elems);

// One error-feedback round against rank-local residual state:
//   data += residual;  data = decode(encode(data));  residual = pre - data.
// After the call `data` holds exactly what the wire codec will reproduce on
// the far side (so a subsequent encode of `data` is lossless for top-k and
// the casts), and `residual` carries the compression error into the next
// step. No-op for lossless codecs. Spans must be the same length.
void codec_error_feedback(const Codec& codec, std::span<float> data,
                          std::span<float> residual);

// Analytic wire bytes per fp32 value (4 for identity, 2 for the casts,
// ~8*fraction for top-k) — what AlgoPicker uses to price compressed
// payloads before any measurement exists.
double codec_wire_bytes_per_value(const Codec& codec);

// Bit-level scalar conversions (exposed for tests).
uint16_t float_to_half(float f);
float half_to_float(uint16_t h);
uint16_t float_to_bf16(float f);
float bf16_to_float(uint16_t h);

}  // namespace embrace::comm
