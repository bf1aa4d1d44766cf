// Tests of the binary wire codec and its agreement with the WireModel
// byte accounting used by the simulator.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/query.h"
#include "skypeer/engine/wire.h"

namespace skypeer {
namespace {

ResultList MakeList(int dims, size_t n, uint64_t seed) {
  Rng rng(seed);
  return BuildSortedByF(GenerateUniform(dims, n, &rng));
}

TEST(Wire, RoundTripProjectedValues) {
  ResultList list = MakeList(6, 50, 1);
  const Subspace u = Subspace::FromDims({1, 3, 5});
  const std::vector<uint8_t> encoded = EncodeResultList(list, u);

  WireList decoded;
  ASSERT_TRUE(DecodeResultList(encoded.data(), encoded.size(), &decoded).ok());
  EXPECT_EQ(decoded.subspace, u);
  ASSERT_EQ(decoded.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(decoded.ids[i], list.points.id(i));
    EXPECT_EQ(decoded.f[i], list.f[i]);
    int c = 0;
    for (int dim : u) {
      EXPECT_EQ(decoded.coords[i * 3 + c], list.points[i][dim]);
      ++c;
    }
  }
}

TEST(Wire, EmptyListRoundTrips) {
  ResultList list(4);
  const Subspace u = Subspace::FromDims({0, 2});
  const std::vector<uint8_t> encoded = EncodeResultList(list, u);
  WireList decoded;
  ASSERT_TRUE(DecodeResultList(encoded.data(), encoded.size(), &decoded).ok());
  EXPECT_EQ(decoded.size(), 0u);
  EXPECT_EQ(decoded.subspace, u);
}

TEST(Wire, EncodedSizeMatchesFormula) {
  for (int k : {1, 2, 3, 5}) {
    std::vector<int> dims_list(k);
    for (int i = 0; i < k; ++i) {
      dims_list[i] = i;
    }
    const Subspace u = Subspace::FromDims(dims_list);
    for (size_t n : {0u, 1u, 17u, 200u}) {
      ResultList list = MakeList(5, n, 10 * k + n);
      const std::vector<uint8_t> encoded = EncodeResultList(list, u);
      EXPECT_EQ(encoded.size(), EncodedListBytes(k, n));
    }
  }
}

TEST(Wire, PerPointCostMatchesWireModel) {
  // The simulator's WireModel charges PointBytes(k) per point; the real
  // codec's marginal cost per point must agree.
  const WireModel model;
  for (int k : {2, 3, 4}) {
    const size_t marginal = EncodedListBytes(k, 11) - EncodedListBytes(k, 10);
    EXPECT_EQ(marginal, model.PointBytes(k));
  }
}

TEST(Wire, RejectsBadMagic) {
  ResultList list = MakeList(4, 5, 2);
  std::vector<uint8_t> encoded =
      EncodeResultList(list, Subspace::FromDims({0, 1}));
  encoded[0] ^= 0xff;
  WireList decoded;
  EXPECT_FALSE(
      DecodeResultList(encoded.data(), encoded.size(), &decoded).ok());
}

TEST(Wire, RejectsTruncation) {
  ResultList list = MakeList(4, 5, 3);
  const std::vector<uint8_t> encoded =
      EncodeResultList(list, Subspace::FromDims({0, 1}));
  WireList decoded;
  for (size_t cut : {encoded.size() - 1, encoded.size() / 2, size_t{3}}) {
    EXPECT_FALSE(DecodeResultList(encoded.data(), cut, &decoded).ok())
        << "cut " << cut;
  }
}

TEST(Wire, RejectsEmptyMask) {
  ResultList list = MakeList(4, 2, 4);
  std::vector<uint8_t> encoded =
      EncodeResultList(list, Subspace::FromDims({0}));
  // Zero out the mask field (bytes 4..7).
  encoded[4] = encoded[5] = encoded[6] = encoded[7] = 0;
  WireList decoded;
  EXPECT_FALSE(
      DecodeResultList(encoded.data(), encoded.size(), &decoded).ok());
}

TEST(Wire, RejectsSizeMismatchedHeader) {
  ResultList list = MakeList(4, 3, 5);
  std::vector<uint8_t> encoded =
      EncodeResultList(list, Subspace::FromDims({0, 1}));
  // Claim one more point than present.
  encoded[8] += 1;
  WireList decoded;
  EXPECT_FALSE(
      DecodeResultList(encoded.data(), encoded.size(), &decoded).ok());
}

TEST(Wire, RejectsCountThatWrapsTheSizeFormula) {
  // Mask 1 (k = 1) makes a point 24 bytes. A count of 2^61 + 1 wraps
  // 24 * count around to 24, so the 40-byte buffer below — header plus
  // one point — matches the size formula while claiming 2^61 + 1 points.
  ResultList list = MakeList(2, 1, 6);
  std::vector<uint8_t> encoded =
      EncodeResultList(list, Subspace::FromDims({0}));
  ASSERT_EQ(encoded.size(), 40u);
  const uint64_t count = (uint64_t{1} << 61) + 1;
  std::memcpy(encoded.data() + 8, &count, sizeof(count));
  WireList decoded;
  const Status status =
      DecodeResultList(encoded.data(), encoded.size(), &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoded.ids.empty());
}

}  // namespace
}  // namespace skypeer
