// Gradient-compression codec layer (DESIGN.md §14): scalar cast bit
// exactness, the codec wire contract (value-free sizes, deterministic
// encode, lossless bitwise roundtrip, lossy projection idempotence), the
// error-feedback update, the per-table codec policy, and the encoded sparse
// collectives against a dense oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "comm/cluster.h"
#include "comm/codec.h"
#include "comm/communicator.h"
#include "comm/sparse_collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "sparse/codec_policy.h"
#include "tensor/sparse_rows.h"

namespace embrace::comm {
namespace {

std::vector<float> random_block(int64_t elems, uint64_t seed,
                                double lo = -2.0, double hi = 2.0) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(elems));
  for (auto& x : v) x = static_cast<float>(rng.next_double(lo, hi));
  return v;
}

std::vector<std::byte> encode_block(const Codec& c,
                                    std::span<const float> src) {
  std::vector<std::byte> wire(
      static_cast<size_t>(c.encoded_bytes(static_cast<int64_t>(src.size()))));
  c.encode_into(src, wire.data());
  return wire;
}

std::vector<float> roundtrip(const Codec& c, std::span<const float> src) {
  const auto wire = encode_block(c, src);
  std::vector<float> out(src.size());
  c.decode(wire, out);
  return out;
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// --- scalar conversions ---

TEST(CodecScalar, HalfKnownBitPatterns) {
  EXPECT_EQ(float_to_half(0.0f), 0x0000);
  EXPECT_EQ(float_to_half(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half(1.0f), 0x3c00);
  EXPECT_EQ(float_to_half(-2.0f), 0xc000);
  EXPECT_EQ(float_to_half(0.5f), 0x3800);
  EXPECT_EQ(float_to_half(65504.0f), 0x7bff);  // largest finite half
  EXPECT_EQ(float_to_half(65536.0f), 0x7c00);  // overflow -> inf
  EXPECT_EQ(float_to_half(5.9604645e-8f), 0x0001);  // smallest subnormal
  EXPECT_EQ(half_to_float(0x3c00), 1.0f);
  EXPECT_EQ(half_to_float(0xc000), -2.0f);
  EXPECT_EQ(half_to_float(0x0001), 5.9604645e-8f);
  EXPECT_TRUE(std::isinf(half_to_float(0x7c00)));
  EXPECT_TRUE(std::isnan(half_to_float(0x7c01)));
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(
      std::numeric_limits<float>::quiet_NaN()))));
}

TEST(CodecScalar, HalfRoundsToNearestEven) {
  // ulp at 1.0 is 2^-10; the midpoint 1 + 2^-11 ties down to the even
  // mantissa 0x3c00, while 1 + 3*2^-11 ties up to the even 0x3c02.
  EXPECT_EQ(float_to_half(1.0f + 0x1.0p-11f), 0x3c00);
  EXPECT_EQ(float_to_half(1.0f + 0x1.8p-10f), 0x3c02);
  // Just past the midpoint rounds up.
  EXPECT_EQ(float_to_half(std::nextafterf(1.0f + 0x1.0p-11f, 2.0f)), 0x3c01);
  // Subnormal midpoint 2^-25 ties down to zero.
  EXPECT_EQ(float_to_half(0x1.0p-25f), 0x0000);
  EXPECT_EQ(float_to_half(std::nextafterf(0x1.0p-25f, 1.0f)), 0x0001);
}

TEST(CodecScalar, HalfRoundTripsRepresentableValues) {
  // Integers up to 2048 are exactly representable in binary16.
  for (const float v : {0.0f, 1.0f, 2.0f, 3.0f, 512.0f, 2048.0f, 0.25f,
                        -0.75f, -1024.0f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
  // half -> float -> half is the identity on every finite half pattern.
  for (uint32_t h = 0; h < 0x8000u; ++h) {
    if ((h & 0x7c00u) == 0x7c00u) continue;  // skip inf/NaN
    EXPECT_EQ(float_to_half(half_to_float(static_cast<uint16_t>(h))), h);
  }
}

TEST(CodecScalar, Bf16KnownPatternsAndRounding) {
  EXPECT_EQ(float_to_bf16(0.0f), 0x0000);
  EXPECT_EQ(float_to_bf16(1.0f), 0x3f80);
  EXPECT_EQ(float_to_bf16(-2.0f), 0xc000);
  EXPECT_EQ(bf16_to_float(0x3f80), 1.0f);
  // ulp at 1.0 is 2^-7; midpoint 1 + 2^-8 ties down to even 0x3f80,
  // 1 + 3*2^-8 ties up to even 0x3f82.
  EXPECT_EQ(float_to_bf16(1.0f + 0x1.0p-8f), 0x3f80);
  EXPECT_EQ(float_to_bf16(1.0f + 0x1.8p-7f), 0x3f82);
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(
      std::numeric_limits<float>::quiet_NaN()))));
  // bf16 is a float prefix: every bf16 value round-trips bitwise.
  for (const float v : {1.0f, -3.5f, 256.0f, 0x1.0p-100f}) {
    const float q = bf16_to_float(float_to_bf16(v));
    EXPECT_EQ(float_to_bf16(q), float_to_bf16(v));
    EXPECT_EQ(bf16_to_float(float_to_bf16(q)), q);
  }
}

// --- codec objects ---

TEST(Codec, ParseAndNamesRoundTrip) {
  // Spellings are parsed at the config boundary (core::parse_codec_kind);
  // every comm kind must build a codec that reports itself.
  for (int k = 0; k < kNumCodecKinds; ++k) {
    const auto kind = static_cast<CodecKind>(k);
    EXPECT_EQ(make_codec(kind)->kind(), kind) << codec_kind_name(kind);
  }
}

TEST(Codec, IdentityIsLosslessBitwise) {
  const auto c = make_codec(CodecKind::kIdentity);
  EXPECT_TRUE(c->lossless());
  EXPECT_EQ(c->encoded_bytes(100), 400);
  const auto data = random_block(257, 5);
  EXPECT_TRUE(bitwise_equal(roundtrip(*c, data), data));
  EXPECT_TRUE(roundtrip(*c, std::vector<float>{}).empty());
}

TEST(Codec, CastCodecsMatchScalarConversions) {
  const auto data = random_block(123, 7, -100.0, 100.0);
  for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16}) {
    const auto c = make_codec(kind);
    EXPECT_FALSE(c->lossless());
    EXPECT_EQ(c->encoded_bytes(123), 246);
    const auto out = roundtrip(*c, data);
    for (size_t i = 0; i < data.size(); ++i) {
      const float want = kind == CodecKind::kFp16
                             ? half_to_float(float_to_half(data[i]))
                             : bf16_to_float(float_to_bf16(data[i]));
      EXPECT_EQ(out[i], want) << codec_kind_name(kind) << " i=" << i;
    }
    // Projection idempotence: re-encoding the decoded block is exact.
    EXPECT_TRUE(bitwise_equal(roundtrip(*c, out), out));
  }
}

TEST(Codec, TopKKeptCountIsValueFreeAndClamped) {
  const auto c = make_codec(CodecKind::kTopK, 0.2);
  // kept = clamp(ceil(0.2 * n), 1, n): header 8B + kept * (4B off + 4B val).
  EXPECT_EQ(c->encoded_bytes(0), 8);    // kept(0) == 0
  EXPECT_EQ(c->encoded_bytes(1), 16);   // kept(1) == 1 (floor of one elem)
  EXPECT_EQ(c->encoded_bytes(3), 16);   // ceil(0.6) == 1
  EXPECT_EQ(c->encoded_bytes(10), 24);  // ceil(2.0) == 2
  EXPECT_EQ(c->encoded_bytes(11), 32);  // ceil(2.2) == 3
  const auto all = make_codec(CodecKind::kTopK, 1.0);
  EXPECT_EQ(all->encoded_bytes(10), 8 + 10 * 8);
  // fraction 1.0 keeps everything: lossy by type but bitwise in practice.
  const auto data = random_block(64, 9);
  EXPECT_TRUE(bitwise_equal(roundtrip(*all, data), data));
}

TEST(Codec, TopKKeepsLargestMagnitudesZerosRest) {
  const auto c = make_codec(CodecKind::kTopK, 0.25);
  const std::vector<float> data = {0.1f, -5.0f, 0.2f, 3.0f,
                                   -0.3f, 0.0f, 4.0f, -0.4f};
  const auto out = roundtrip(*c, data);  // kept = 2 of 8
  const std::vector<float> want = {0.0f, -5.0f, 0.0f, 0.0f,
                                   0.0f, 0.0f, 4.0f, 0.0f};
  EXPECT_TRUE(bitwise_equal(out, want));
}

TEST(Codec, TopKTiesBreakTowardLowerOffset) {
  const auto c = make_codec(CodecKind::kTopK, 0.5);
  // All equal magnitude: the two lowest offsets must win — a total order,
  // so every rank picks the same survivors.
  const std::vector<float> data = {1.0f, -1.0f, 1.0f, -1.0f};
  const auto out = roundtrip(*c, data);
  const std::vector<float> want = {1.0f, -1.0f, 0.0f, 0.0f};
  EXPECT_TRUE(bitwise_equal(out, want));
}

TEST(Codec, TopKEncodeIsDeterministic) {
  const auto c = make_codec(CodecKind::kTopK, 0.3);
  const auto data = random_block(500, 11);
  const auto a = encode_block(*c, data);
  const auto b = encode_block(*c, data);
  EXPECT_EQ(a, b);
  // A fresh instance agrees too (no hidden per-instance state).
  const auto c2 = make_codec(CodecKind::kTopK, 0.3);
  EXPECT_EQ(encode_block(*c2, data), a);
  // Projection idempotence.
  const auto proj = roundtrip(*c, data);
  EXPECT_TRUE(bitwise_equal(roundtrip(*c, proj), proj));
}

TEST(Codec, WireBytesPerValue) {
  EXPECT_DOUBLE_EQ(codec_wire_bytes_per_value(*make_codec(CodecKind::kIdentity)),
                   4.0);
  EXPECT_DOUBLE_EQ(codec_wire_bytes_per_value(*make_codec(CodecKind::kFp16)),
                   2.0);
  EXPECT_DOUBLE_EQ(codec_wire_bytes_per_value(*make_codec(CodecKind::kBf16)),
                   2.0);
  // topk: ~8 bytes per kept value -> 8 * fraction, headers washed out.
  EXPECT_NEAR(codec_wire_bytes_per_value(*make_codec(CodecKind::kTopK, 0.2)),
              1.6, 0.01);
  EXPECT_NEAR(codec_wire_bytes_per_value(*make_codec(CodecKind::kTopK, 0.5)),
              4.0, 0.01);
}

TEST(Codec, EncodeBumpsCompressionCounters) {
  BufferPool pool;
  const auto c = make_codec(CodecKind::kTopK, 0.2);
  obs::Counter& in = obs::counter("comm.codec.bytes_in{codec=topk}");
  obs::Counter& out = obs::counter("comm.codec.bytes_out{codec=topk}");
  const int64_t in0 = in.value();
  const int64_t out0 = out.value();
  const auto data = random_block(100, 13);
  Bytes wire = codec_encode(*c, pool, data);
  EXPECT_EQ(wire.size(), static_cast<size_t>(c->encoded_bytes(100)));
  EXPECT_EQ(in.value() - in0, 400);
  EXPECT_EQ(out.value() - out0, c->encoded_bytes(100));
  pool.release(std::move(wire));
  // The in-place variant counts the same way.
  codec_count_bytes(*c, 50);
  EXPECT_EQ(in.value() - in0, 400 + 200);
  EXPECT_EQ(out.value() - out0, c->encoded_bytes(100) + c->encoded_bytes(50));
}

// --- error feedback ---

TEST(CodecErrorFeedback, LosslessIsNoOp) {
  const auto c = make_codec(CodecKind::kIdentity);
  auto data = random_block(32, 15);
  const auto data0 = data;
  std::vector<float> residual(32, 0.5f);
  codec_error_feedback(*c, data, residual);
  EXPECT_TRUE(bitwise_equal(data, data0));
  for (float r : residual) EXPECT_EQ(r, 0.5f);
}

TEST(CodecErrorFeedback, ProjectsDataAndConservesMass) {
  for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16,
                               CodecKind::kTopK}) {
    const auto c = make_codec(kind, 0.25);
    auto data = random_block(64, 17);
    const auto data0 = data;
    std::vector<float> residual(64, 0.0f);
    codec_error_feedback(*c, data, residual);
    // Post-EF data is codec-representable: a wire roundtrip is now exact,
    // so whatever this rank ships is exactly what the far side reconstructs.
    EXPECT_TRUE(bitwise_equal(roundtrip(*c, data), data))
        << codec_kind_name(kind);
    // Conservation: data + residual reproduces the pre-EF gradient (the
    // compression error moved into the residual instead of vanishing).
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_NEAR(data[i] + residual[i], data0[i], 1e-6f)
          << codec_kind_name(kind) << " i=" << i;
    }
  }
}

TEST(CodecErrorFeedback, ResidualReinjectsDroppedMassNextStep) {
  // A value that top-k drops every step still reaches the wire eventually:
  // its residual grows until it outranks a kept slot.
  const auto c = make_codec(CodecKind::kTopK, 0.5);
  std::vector<float> residual(2, 0.0f);
  double shipped_small = 0.0;
  for (int step = 0; step < 8; ++step) {
    std::vector<float> data = {1.0f, 0.4f};  // big always wins the one slot?
    // fraction 0.5 of 2 keeps 1 element: the small one loses every raw step.
    codec_error_feedback(*c, data, residual);
    shipped_small += data[1];
  }
  // Without EF the small coordinate would ship 0 forever; with EF its
  // accumulated residual (0.4/step) overtakes 1.0 every third step.
  EXPECT_GT(shipped_small, 1.0);
}

TEST(CodecErrorFeedback, DeterministicAcrossRuns) {
  const auto c = make_codec(CodecKind::kTopK, 0.3);
  auto run = [&] {
    auto data = random_block(128, 19);
    std::vector<float> residual(128, 0.0f);
    for (int step = 0; step < 4; ++step) {
      codec_error_feedback(*c, data, residual);
      auto next = random_block(128, 21 + static_cast<uint64_t>(step));
      data = next;
    }
    return residual;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_TRUE(bitwise_equal(a, b));
}

// --- policy ---

TEST(CodecPolicy, FixedBasePicks) {
  sparse::CodecPolicyConfig identity_cfg;
  const sparse::CodecPolicy identity(identity_cfg);
  EXPECT_EQ(identity.choose(0, 1.0), nullptr);
  EXPECT_FALSE(identity.may_be_lossy());

  sparse::CodecPolicyConfig bf16_cfg;
  bf16_cfg.base = CodecKind::kBf16;
  const sparse::CodecPolicy bf16(bf16_cfg);
  const Codec* c = bf16.choose(3, 0.0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind(), CodecKind::kBf16);
  EXPECT_TRUE(bf16.may_be_lossy());
  // Same pointer every call: collectives can cache per-op codecs.
  EXPECT_EQ(bf16.choose(4, 99.0), c);
}

TEST(CodecPolicy, AdaptiveSplitsOnCastFloor) {
  sparse::CodecPolicyConfig cfg;
  cfg.adaptive = true;
  cfg.cast_floor = 1e-3;
  cfg.topk_fraction = 0.1;
  const sparse::CodecPolicy policy(cfg);
  EXPECT_TRUE(policy.may_be_lossy());
  const Codec* hot = policy.choose(0, 2e-3);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->kind(), CodecKind::kBf16);
  const Codec* at_floor = policy.choose(0, 1e-3);
  ASSERT_NE(at_floor, nullptr);
  EXPECT_EQ(at_floor->kind(), CodecKind::kBf16);  // floor is inclusive
  const Codec* cold = policy.choose(1, 1e-4);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->kind(), CodecKind::kTopK);
  EXPECT_NEAR(codec_wire_bytes_per_value(*cold), 0.8, 0.01);  // 8 * 0.1
}

// --- wire pack/unpack and encoded collectives ---

TEST(CodecWire, SparsePackWireRoundTrips) {
  Fabric fabric(1);
  run_cluster(fabric, [&](Communicator& comm) {
    Rng rng(23);
    SparseRows rows(50, {3, 17, 3, 42},
                    Tensor::randn({4, 6}, rng));
    // Null codec: bitwise identical to the raw packed format.
    Bytes raw = sparse_pack_wire(comm, rows);
    const size_t raw_bytes = raw.size();
    SparseRows back = sparse_unpack_wire(raw);
    EXPECT_EQ(back.indices(), rows.indices());
    EXPECT_TRUE(bitwise_equal(back.values().flat(), rows.values().flat()));
    comm.pool().release(std::move(raw));
    // Identity codec: same logical payload, still bitwise.
    const auto identity = make_codec(CodecKind::kIdentity);
    Bytes enc = sparse_pack_wire(comm, rows, identity.get());
    SparseRows back2 = sparse_unpack_wire(enc, identity.get());
    EXPECT_EQ(back2.indices(), rows.indices());
    EXPECT_TRUE(bitwise_equal(back2.values().flat(), rows.values().flat()));
    comm.pool().release(std::move(enc));
    // Lossy codec: indices survive raw; values come back codec-projected.
    const auto bf16 = make_codec(CodecKind::kBf16);
    Bytes lossy = sparse_pack_wire(comm, rows, bf16.get());
    EXPECT_LT(lossy.size(), raw_bytes);
    SparseRows back3 = sparse_unpack_wire(lossy, bf16.get());
    EXPECT_EQ(back3.indices(), rows.indices());
    const auto& v = rows.values().flat();
    const auto& q = back3.values().flat();
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(q[i], bf16_to_float(float_to_bf16(v[i])));
    }
    comm.pool().release(std::move(lossy));
  });
}

// Dense oracle comparison: every sparse-allreduce algorithm under every
// codec must land within the codec's quantization error of the exact sum,
// and all ranks must agree bitwise.
TEST(CodecWire, EncodedSparseAllreduceTracksDenseOracle) {
  constexpr int kWorld = 4;
  constexpr int64_t kRows = 32;
  constexpr int64_t kDim = 4;
  std::vector<SparseRows> contribs;
  Tensor oracle({kRows, kDim});
  Rng rng(29);
  for (int r = 0; r < kWorld; ++r) {
    std::vector<int64_t> idx;
    for (int i = 0; i < 6; ++i) idx.push_back(rng.next_int(0, kRows - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 1);
    SparseRows s(kRows, idx, Tensor::randn({6, kDim}, vr));
    s.add_to_dense(oracle);
    contribs.push_back(std::move(s));
  }
  for (const CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kFp16, CodecKind::kBf16}) {
    for (const SparseAlgoKind algo :
         {SparseAlgoKind::kSplitAllgather, SparseAlgoKind::kRecursiveDoubling,
          SparseAlgoKind::kDenseRing}) {
      std::vector<Tensor> results(kWorld);
      run_cluster(kWorld, [&](Communicator& comm) {
        // Per-rank codec instances: top-k scratch is not thread-safe.
        const auto codec = make_codec(kind, 0.5);
        SparseRows sum =
            sparse_allreduce(comm, contribs[static_cast<size_t>(comm.rank())],
                             algo, 0, codec.get());
        results[static_cast<size_t>(comm.rank())] = sum.to_dense();
      });
      // Lossy casts quantize per hop; bf16 has ~2^-8 relative error and
      // payload magnitudes are O(4), so a loose absolute bound suffices.
      const float tol = kind == CodecKind::kIdentity ? 1e-4f : 0.15f;
      for (int r = 0; r < kWorld; ++r) {
        EXPECT_LT(results[static_cast<size_t>(r)].max_abs_diff(oracle), tol)
            << codec_kind_name(kind) << "/" << sparse_algo_name(algo)
            << " rank " << r;
      }
      // Rank agreement is bitwise regardless of codec.
      for (int r = 1; r < kWorld; ++r) {
        EXPECT_TRUE(bitwise_equal(results[static_cast<size_t>(r)].flat(),
                                  results[0].flat()))
            << codec_kind_name(kind) << "/" << sparse_algo_name(algo);
      }
    }
  }
}

TEST(CodecWire, IdentityCodecSparseCollectivesBitwiseMatchNull) {
  constexpr int kWorld = 3;
  constexpr int64_t kRows = 20;
  constexpr int64_t kDim = 3;
  std::vector<SparseRows> contribs;
  Rng rng(31);
  for (int r = 0; r < kWorld; ++r) {
    std::vector<int64_t> idx;
    for (int i = 0; i < 4; ++i) idx.push_back(rng.next_int(0, kRows - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 7);
    contribs.emplace_back(kRows, idx, Tensor::randn({4, kDim}, vr));
  }
  for (const SparseAlgoKind algo :
       {SparseAlgoKind::kSplitAllgather, SparseAlgoKind::kRecursiveDoubling,
        SparseAlgoKind::kDenseRing}) {
    run_cluster(kWorld, [&](Communicator& comm) {
      const SparseRows& mine = contribs[static_cast<size_t>(comm.rank())];
      SparseRows plain = sparse_allreduce(comm, mine, algo);
      const auto identity = make_codec(CodecKind::kIdentity);
      SparseRows coded = sparse_allreduce(comm, mine, algo, 0, identity.get());
      EXPECT_EQ(coded.indices(), plain.indices())
          << sparse_algo_name(algo);
      EXPECT_TRUE(bitwise_equal(coded.values().flat(),
                                plain.values().flat()))
          << sparse_algo_name(algo);
    });
  }
}

}  // namespace
}  // namespace embrace::comm
