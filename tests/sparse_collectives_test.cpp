// Tests for SparseRows collectives over the in-process cluster.
#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "comm/cluster.h"
#include "comm/sparse_collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "tensor/index_ops.h"

namespace embrace::comm {
namespace {

class SparseCollectivesP : public ::testing::TestWithParam<int> {
 protected:
  int n() const { return GetParam(); }
};

TEST_P(SparseCollectivesP, SparseAllgatherEqualsDenseSum) {
  constexpr int64_t kRows = 40;
  constexpr int64_t kDim = 3;
  // Build per-rank sparse gradients and a dense oracle of their sum.
  std::vector<SparseRows> contribs;
  Tensor oracle({kRows, kDim});
  Rng rng(17);
  for (int r = 0; r < n(); ++r) {
    const int64_t nnz = rng.next_int(0, 10);
    std::vector<int64_t> idx;
    for (int64_t i = 0; i < nnz; ++i) idx.push_back(rng.next_int(0, kRows - 1));
    Rng vr = rng.split(static_cast<uint64_t>(r) + 1);
    Tensor vals = Tensor::randn({nnz, kDim}, vr);
    SparseRows s(kRows, idx, vals);
    s.add_to_dense(oracle);
    contribs.push_back(std::move(s));
  }
  run_cluster(n(), [&](Communicator& comm) {
    SparseRows sum =
        sparse_allgather(comm, contribs[static_cast<size_t>(comm.rank())]);
    EXPECT_LT(sum.to_dense().max_abs_diff(oracle), 1e-4f);
  });
}

TEST_P(SparseCollectivesP, TensorAllreduceSums) {
  run_cluster(n(), [&](Communicator& comm) {
    Tensor t = Tensor::full({3, 3}, static_cast<float>(comm.rank() + 1));
    comm.allreduce(t.flat());
    const float expected = static_cast<float>(n() * (n() + 1)) / 2.0f;
    for (float v : t.flat()) ASSERT_FLOAT_EQ(v, expected);
  });
}

TEST_P(SparseCollectivesP, SparseAllgatherEmptyContributions) {
  run_cluster(n(), [&](Communicator& comm) {
    SparseRows mine = SparseRows::empty(10, 4);
    SparseRows sum = sparse_allgather(comm, mine);
    EXPECT_TRUE(sum.empty());
    EXPECT_EQ(sum.num_total_rows(), 10);
    EXPECT_EQ(sum.dim(), 4);
  });
}

INSTANTIATE_TEST_SUITE_P(RankSweep, SparseCollectivesP,
                         ::testing::Values(1, 2, 4, 6));

// Concatenated sections (one AlltoAll payload carrying several tables):
// no framing, each section sized from its own header.
std::vector<std::byte> pack_sections(const std::vector<SparseRows>& rows,
                                     const std::vector<const Codec*>& codecs) {
  size_t size = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    size += sparse_wire_bytes(rows[i], codecs[i]);
  }
  std::vector<std::byte> buf(size);
  size_t offset = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t n = sparse_wire_bytes(rows[i], codecs[i]);
    sparse_pack_wire_into(rows[i], codecs[i],
                          std::span(buf).subspan(offset, n));
    offset += n;
  }
  return buf;
}

TEST(SparseWireSections, MixedEmptyAndNonEmptyRoundTrip) {
  // Values are exact in fp16/bf16, so every section decodes bitwise.
  auto fp16 = make_codec(CodecKind::kFp16);
  auto bf16 = make_codec(CodecKind::kBf16);
  Tensor vals({2, 3}, {0.5f, -1.0f, 2.0f, 0.25f, 4.0f, -0.5f});
  const std::vector<SparseRows> rows{
      SparseRows::empty(10, 3), SparseRows(10, {4, 1}, vals),
      SparseRows::empty(7, 5), SparseRows(10, {9, 9}, vals),
      SparseRows(10, {2, 3}, vals)};
  const std::vector<const Codec*> codecs{nullptr, fp16.get(), bf16.get(),
                                         nullptr, bf16.get()};
  const std::vector<std::byte> buf = pack_sections(rows, codecs);
  const auto parts = split_sparse_wire(buf, codecs);
  ASSERT_EQ(parts.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parts[i].size(), sparse_wire_bytes(rows[i], codecs[i]));
    const SparseRows back = sparse_unpack_wire(parts[i], codecs[i]);
    EXPECT_EQ(back.num_total_rows(), rows[i].num_total_rows()) << i;
    EXPECT_EQ(back.indices(), rows[i].indices()) << i;
    EXPECT_EQ(back.values().max_abs_diff(rows[i].values()), 0.0f) << i;
  }
  // Every section empty is a valid payload too.
  const std::vector<SparseRows> empties{SparseRows::empty(4, 2),
                                        SparseRows::empty(4, 2)};
  const std::vector<const Codec*> raw{nullptr, nullptr};
  EXPECT_EQ(split_sparse_wire(pack_sections(empties, raw), raw).size(), 2u);
}

TEST(SparseWireSections, TruncatedOrOverlongPayloadThrows) {
  auto fp16 = make_codec(CodecKind::kFp16);
  Tensor vals({2, 3}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  const std::vector<SparseRows> rows{SparseRows(10, {1, 2}, vals),
                                     SparseRows::empty(10, 3),
                                     SparseRows(10, {5, 6}, vals)};
  for (const Codec* codec : {static_cast<const Codec*>(nullptr),
                             static_cast<const Codec*>(fp16.get())}) {
    const std::vector<const Codec*> codecs(rows.size(), codec);
    const std::vector<std::byte> buf = pack_sections(rows, codecs);
    const std::span<const std::byte> all(buf);
    // Short: a byte off the end, inside the last header, or a section lost.
    EXPECT_THROW(split_sparse_wire(all.first(buf.size() - 1), codecs),
                 WireFormatError);
    const size_t last = sparse_wire_bytes(rows.back(), codec);
    EXPECT_THROW(split_sparse_wire(all.first(buf.size() - last + 5), codecs),
                 WireFormatError);
    EXPECT_THROW(split_sparse_wire(all.first(buf.size() - last), codecs),
                 WireFormatError);
    // Long: a trailing byte, or one more section than the receiver expects.
    std::vector<std::byte> longer = buf;
    longer.push_back(std::byte{0});
    EXPECT_THROW(split_sparse_wire(longer, codecs), WireFormatError);
    EXPECT_THROW(split_sparse_wire(buf, std::span(codecs).first(2)),
                 WireFormatError);
    // A hostile nnz in the first header cannot wrap the size check.
    std::vector<std::byte> hostile = buf;
    const int64_t nnz = int64_t{1} << 60;
    std::memcpy(hostile.data() + 2 * sizeof(int64_t), &nnz, sizeof(nnz));
    EXPECT_THROW(split_sparse_wire(hostile, codecs), WireFormatError);
  }
}

TEST(SparseWireSections, FixedSizeSectionsSplitExactly) {
  std::vector<std::byte> buf(20);
  const std::vector<size_t> sizes{0, 8, 0, 12};
  const auto parts = split_sections(buf, sizes);
  ASSERT_EQ(parts.size(), sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(parts[i].size(), sizes[i]);
  }
  EXPECT_EQ(parts[3].data(), buf.data() + 8);
  const std::span<const std::byte> all(buf);
  EXPECT_THROW(split_sections(all.first(19), sizes), WireFormatError);
  buf.push_back(std::byte{0});
  EXPECT_THROW(split_sections(buf, sizes), WireFormatError);
}

}  // namespace
}  // namespace embrace::comm
