#include "comm/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace embrace::comm {

uint16_t float_to_half(float f) {
  const uint32_t b = std::bit_cast<uint32_t>(f);
  const uint32_t sign = (b >> 16) & 0x8000u;
  const uint32_t exp = (b >> 23) & 0xffu;
  uint32_t mant = b & 0x7fffffu;
  if (exp == 0xffu) {  // inf / NaN (keep NaN a NaN)
    return static_cast<uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0u));
  }
  const int e = static_cast<int>(exp) - 127 + 15;  // re-biased exponent
  if (e >= 31) return static_cast<uint16_t>(sign | 0x7c00u);  // overflow->inf
  if (e <= 0) {
    // Subnormal half (or zero): round the mantissa — implicit bit included —
    // at the shifted position.
    if (e < -10) return static_cast<uint16_t>(sign);  // underflows to +-0
    mant |= 0x800000u;
    const int shift = 14 - e;  // in [14, 24]
    const uint32_t rounded =
        mant + ((1u << (shift - 1)) - 1u) + ((mant >> shift) & 1u);
    return static_cast<uint16_t>(sign | (rounded >> shift));
  }
  // Normal: round-to-nearest-even on the 13 dropped bits; a mantissa carry
  // propagates into the exponent field by addition (inf when it tops out).
  const uint32_t rounded = mant + 0xfffu + ((mant >> 13) & 1u);
  uint32_t out = (static_cast<uint32_t>(e) << 10) + (rounded >> 13);
  if (out >= 0x7c00u) out = 0x7c00u;
  return static_cast<uint16_t>(sign | out);
}

float half_to_float(uint16_t h) {
  const uint32_t sign = (static_cast<uint32_t>(h) & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // +-0
    } else {
      // Subnormal half (mant * 2^-24): normalize into a float, which has
      // headroom to spare. After e shifts the implicit bit sits at 10, so
      // the value is 1.m * 2^(-14 - e) -> biased float exponent 113 - e.
      int e = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++e;
      }
      out = sign | (static_cast<uint32_t>(113 - e) << 23) |
            ((mant & 0x3ffu) << 13);
    }
  } else if (exp == 0x1fu) {
    out = sign | 0x7f800000u | (mant << 13);  // inf / NaN
  } else {
    out = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(out);
}

uint16_t float_to_bf16(float f) {
  uint32_t b = std::bit_cast<uint32_t>(f);
  if ((b & 0x7fffffffu) > 0x7f800000u) {  // NaN: keep it quiet
    return static_cast<uint16_t>((b >> 16) | 0x40u);
  }
  b += 0x7fffu + ((b >> 16) & 1u);  // round to nearest even
  return static_cast<uint16_t>(b >> 16);
}

float bf16_to_float(uint16_t h) {
  return std::bit_cast<float>(static_cast<uint32_t>(h) << 16);
}

const char* codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kIdentity:
      return "identity";
    case CodecKind::kFp16:
      return "fp16";
    case CodecKind::kBf16:
      return "bf16";
    case CodecKind::kTopK:
      return "topk";
  }
  return "unknown";
}

namespace {

class IdentityCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kIdentity; }
  bool lossless() const override { return true; }
  int64_t encoded_bytes(int64_t elems) const override { return elems * 4; }
  void encode_into(std::span<const float> src, std::byte* dst) const override {
    // An empty span may carry a null data(), which memcpy must not see.
    if (!src.empty()) std::memcpy(dst, src.data(), src.size_bytes());
  }
  void decode(std::span<const std::byte> src,
              std::span<float> dst) const override {
    EMBRACE_CHECK(src.size() == dst.size_bytes(),
                  << "identity payload size mismatch");
    if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
  }
};

// Shared shell for the two 16-bit casts — only the scalar converters differ.
template <uint16_t (*kEncode)(float), float (*kDecode)(uint16_t), CodecKind K>
class CastCodec final : public Codec {
 public:
  CodecKind kind() const override { return K; }
  // Lossy in general; values already representable in the target type
  // round-trip bitwise (what error feedback arranges on purpose).
  bool lossless() const override { return false; }
  int64_t encoded_bytes(int64_t elems) const override { return elems * 2; }
  void encode_into(std::span<const float> src, std::byte* dst) const override {
    for (float v : src) {
      const uint16_t h = kEncode(v);
      std::memcpy(dst, &h, 2);
      dst += 2;
    }
  }
  void decode(std::span<const std::byte> src,
              std::span<float> dst) const override {
    EMBRACE_CHECK(src.size() == dst.size() * 2,
                  << "cast payload size mismatch");
    const std::byte* p = src.data();
    for (float& v : dst) {
      uint16_t h;
      std::memcpy(&h, p, 2);
      p += 2;
      v = kDecode(h);
    }
  }
};

using Fp16Codec = CastCodec<float_to_half, half_to_float, CodecKind::kFp16>;
using Bf16Codec = CastCodec<float_to_bf16, bf16_to_float, CodecKind::kBf16>;

// Top-k sparsification. Wire layout:
//   [kept : int64][kept x offset : uint32][kept x value : float]
// with offsets ascending. kept = clamp(ceil(fraction * elems), 1, elems)
// depends only on the element count, so encoded_bytes stays value-free;
// which offsets survive is decided by |value| with lower-offset ties winning
// — a total order, hence deterministic across ranks.
class TopKCodec final : public Codec {
 public:
  explicit TopKCodec(double fraction) : fraction_(fraction) {
    EMBRACE_CHECK(fraction > 0.0 && fraction <= 1.0,
                  << "topk fraction must be in (0,1], got " << fraction);
  }

  CodecKind kind() const override { return CodecKind::kTopK; }
  bool lossless() const override { return false; }

  int64_t kept(int64_t elems) const {
    if (elems <= 0) return 0;
    const auto k = static_cast<int64_t>(
        std::ceil(fraction_ * static_cast<double>(elems)));
    return std::clamp<int64_t>(k, 1, elems);
  }

  int64_t encoded_bytes(int64_t elems) const override {
    return 8 + kept(elems) * 8;
  }

  void encode_into(std::span<const float> src, std::byte* dst) const override {
    const int64_t n = static_cast<int64_t>(src.size());
    const int64_t k = kept(n);
    order_.resize(static_cast<size_t>(n));
    std::iota(order_.begin(), order_.end(), 0u);
    const auto larger = [&src](uint32_t a, uint32_t b) {
      const float ma = std::fabs(src[a]);
      const float mb = std::fabs(src[b]);
      if (ma != mb) return ma > mb;
      return a < b;
    };
    if (k < n) {
      std::nth_element(order_.begin(), order_.begin() + k, order_.end(),
                       larger);
    }
    // Offsets go out ascending so decode scatters sequentially.
    std::sort(order_.begin(), order_.begin() + k);
    std::memcpy(dst, &k, 8);
    dst += 8;
    if (k > 0) std::memcpy(dst, order_.data(), static_cast<size_t>(k) * 4);
    std::byte* values = dst + k * 4;
    for (int64_t i = 0; i < k; ++i) {
      std::memcpy(values + i * 4, &src[order_[static_cast<size_t>(i)]], 4);
    }
  }

  void decode(std::span<const std::byte> src,
              std::span<float> dst) const override {
    const int64_t n = static_cast<int64_t>(dst.size());
    EMBRACE_CHECK(src.size() == static_cast<size_t>(encoded_bytes(n)),
                  << "topk payload size mismatch: " << src.size() << " vs "
                  << encoded_bytes(n));
    int64_t k = 0;
    std::memcpy(&k, src.data(), 8);
    EMBRACE_CHECK(k == kept(n), << "topk kept-count mismatch: " << k << " vs "
                                << kept(n) << " for " << n << " elems");
    const std::byte* offsets = src.data() + 8;
    const std::byte* values = offsets + k * 4;
    std::fill(dst.begin(), dst.end(), 0.0f);
    for (int64_t i = 0; i < k; ++i) {
      uint32_t off;
      std::memcpy(&off, offsets + i * 4, 4);
      EMBRACE_CHECK(off < static_cast<uint64_t>(n),
                    << "topk offset " << off << " out of range " << n);
      std::memcpy(&dst[off], values + i * 4, 4);
    }
  }

 private:
  double fraction_;
  // Scratch for the selection; a codec instance is used from one rank
  // thread at a time (each rank builds its own), so plain mutable is fine.
  mutable std::vector<uint32_t> order_;
};

}  // namespace

std::unique_ptr<Codec> make_codec(CodecKind kind, double topk_fraction) {
  switch (kind) {
    case CodecKind::kIdentity:
      return std::make_unique<IdentityCodec>();
    case CodecKind::kFp16:
      return std::make_unique<Fp16Codec>();
    case CodecKind::kBf16:
      return std::make_unique<Bf16Codec>();
    case CodecKind::kTopK:
      return std::make_unique<TopKCodec>(topk_fraction);
  }
  EMBRACE_CHECK(false, << "unknown codec kind "
                       << static_cast<int>(kind));
  return nullptr;
}

namespace {

struct CodecCounters {
  obs::Counter& in;
  obs::Counter& out;
};

CodecCounters counters_for(CodecKind kind) {
  // Function-local statics: resolved once, thread-safe by construction.
  static CodecCounters tab[kNumCodecKinds] = {
      {obs::counter("comm.codec.bytes_in{codec=identity}"),
       obs::counter("comm.codec.bytes_out{codec=identity}")},
      {obs::counter("comm.codec.bytes_in{codec=fp16}"),
       obs::counter("comm.codec.bytes_out{codec=fp16}")},
      {obs::counter("comm.codec.bytes_in{codec=bf16}"),
       obs::counter("comm.codec.bytes_out{codec=bf16}")},
      {obs::counter("comm.codec.bytes_in{codec=topk}"),
       obs::counter("comm.codec.bytes_out{codec=topk}")},
  };
  return tab[static_cast<size_t>(kind)];
}

}  // namespace

Bytes codec_encode(const Codec& codec, BufferPool& pool,
                   std::span<const float> src) {
  const int64_t encoded = codec.encoded_bytes(static_cast<int64_t>(src.size()));
  Bytes wire = pool.acquire(static_cast<size_t>(encoded));
  codec.encode_into(src, wire.data());
  codec_count_bytes(codec, static_cast<int64_t>(src.size()));
  return wire;
}

void codec_count_bytes(const Codec& codec, int64_t elems) {
  const CodecCounters counters = counters_for(codec.kind());
  counters.in.add(elems * 4);
  counters.out.add(codec.encoded_bytes(elems));
}

void codec_error_feedback(const Codec& codec, std::span<float> data,
                          std::span<float> residual) {
  EMBRACE_CHECK(data.size() == residual.size(),
                << "error-feedback residual size mismatch: " << data.size()
                << " vs " << residual.size());
  if (codec.lossless()) return;
  for (size_t i = 0; i < data.size(); ++i) data[i] += residual[i];
  // Round-trip through the codec so `data` becomes exactly what the far end
  // will decode; the lost part funds the next step's residual.
  const int64_t encoded =
      codec.encoded_bytes(static_cast<int64_t>(data.size()));
  thread_local std::vector<std::byte> wire;
  thread_local std::vector<float> decoded;
  wire.resize(static_cast<size_t>(encoded));
  decoded.resize(data.size());
  codec.encode_into(data, wire.data());
  codec.decode(wire, decoded);
  for (size_t i = 0; i < data.size(); ++i) {
    residual[i] = data[i] - decoded[i];
    data[i] = decoded[i];
  }
}

double codec_wire_bytes_per_value(const Codec& codec) {
  // Probe with a block large enough that fixed headers wash out.
  constexpr int64_t kProbe = 1 << 20;
  return static_cast<double>(codec.encoded_bytes(kProbe)) /
         static_cast<double>(kProbe);
}

}  // namespace embrace::comm
