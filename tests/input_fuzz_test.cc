// Seeded mutation fuzzing of every decoder that reads bytes from outside
// the process: the wire codec, store snapshots, cost profiles and the
// numeric flag parsers. Each target starts from valid encodings and
// applies a fixed number of seeded byte flips, truncations and
// extensions. A decoder must return an error or a value that satisfies
// its contract — never abort, and never hand a scan a store that
// `ValidateStore` rejects. Every case reproduces from its iteration seed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/parse.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/cost_model.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/persistence.h"
#include "skypeer/engine/wire.h"

namespace skypeer {
namespace {

/// Applies one to four seeded edits: flip a bit, overwrite a byte,
/// truncate, or append random bytes.
std::vector<uint8_t> Mutate(std::vector<uint8_t> bytes, Rng* rng) {
  const int edits = static_cast<int>(rng->UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const int64_t last = static_cast<int64_t>(bytes.size()) - 1;
    switch (rng->UniformInt(0, 3)) {
      case 0:
        if (last >= 0) {
          bytes[rng->UniformInt(0, last)] ^=
              static_cast<uint8_t>(1u << rng->UniformInt(0, 7));
        }
        break;
      case 1:
        if (last >= 0) {
          bytes[rng->UniformInt(0, last)] =
              static_cast<uint8_t>(rng->UniformInt(0, 255));
        }
        break;
      case 2:
        bytes.resize(rng->UniformInt(0, last + 1));
        break;
      default:
        for (int64_t n = rng->UniformInt(1, 24); n > 0; --n) {
          bytes.push_back(static_cast<uint8_t>(rng->UniformInt(0, 255)));
        }
        break;
    }
  }
  return bytes;
}

std::string MutateText(const std::string& text, Rng* rng) {
  std::vector<uint8_t> bytes =
      Mutate(std::vector<uint8_t>(text.begin(), text.end()), rng);
  return std::string(bytes.begin(), bytes.end());
}

TEST(InputFuzz, DecodeResultListNeverAborts) {
  Rng rng(1);
  const int dims = 5;
  std::vector<std::vector<uint8_t>> seeds;
  for (uint32_t mask : {1u, 5u, 31u}) {
    for (size_t n : {0, 1, 7}) {
      seeds.push_back(EncodeResultList(
          BuildSortedByF(GenerateUniform(dims, n, &rng)), Subspace(mask)));
    }
  }
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::vector<uint8_t> input =
        Mutate(seeds[i % seeds.size()], &rng);
    WireList wire;
    const Status status = DecodeResultList(input.data(), input.size(), &wire);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << i;
      continue;
    }
    ++accepted;
    const int k = wire.subspace.Count();
    ASSERT_GT(k, 0) << i;
    ASSERT_EQ(input.size(), EncodedListBytes(k, wire.size())) << i;
    ASSERT_EQ(wire.coords.size(), wire.size() * static_cast<size_t>(k)) << i;
    ASSERT_EQ(wire.f.size(), wire.size()) << i;
  }
  // Flips inside the coordinate payload keep the frame valid.
  EXPECT_GT(accepted, 0);
}

TEST(InputFuzz, LoadStoresOnlyInstallsValidStores) {
  NetworkConfig config;
  config.num_peers = 12;
  config.num_super_peers = 3;
  config.points_per_peer = 10;
  config.dims = 3;
  config.seed = 5;
  const std::string path =
      std::string(::testing::TempDir()) + "/fuzz_stores.bin";
  std::vector<uint8_t> snapshot;
  {
    SkypeerNetwork original(config);
    original.Preprocess();
    ASSERT_TRUE(SaveStores(original, path).ok());
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    for (int c = std::fgetc(file); c != EOF; c = std::fgetc(file)) {
      snapshot.push_back(static_cast<uint8_t>(c));
    }
    std::fclose(file);
  }
  Rng rng(2);
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    const std::vector<uint8_t> input = Mutate(snapshot, &rng);
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(input.data(), 1, input.size(), file), input.size());
    std::fclose(file);

    SkypeerNetwork restored(config);
    const Status status = LoadStores(&restored, path);
    ASSERT_EQ(restored.preprocessed(), status.ok()) << i;
    if (!status.ok()) {
      continue;
    }
    ++accepted;
    for (int sp = 0; sp < restored.num_super_peers(); ++sp) {
      EXPECT_TRUE(ValidateStore(restored.super_peer(sp).store(), config.dims)
                      .ok())
          << "iteration " << i << " super-peer " << sp;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(accepted, 0);
}

TEST(InputFuzz, CostProfileLoadsOnlyFiniteNonNegativeCosts) {
  Rng rng(3);
  const std::string seeds[] = {CostModel::Calibrated().ToProfileString(),
                               CostModel::Unit().ToProfileString(),
                               "# comment\n\nbyte_s=2.5e-9\n"};
  for (int i = 0; i < 3000; ++i) {
    const std::string input = MutateText(seeds[i % 3], &rng);
    CostModel model = CostModel::Calibrated();
    if (!model.LoadProfileString(input)) {
      continue;
    }
    for (double cost :
         {model.dominance_test_s, model.scan_step_s, model.merge_pull_s,
          model.sort_step_s, model.byte_s, model.page_read_s,
          model.page_byte_s, model.summary_test_s, model.block_skip_s}) {
      EXPECT_TRUE(std::isfinite(cost) && cost >= 0.0) << i << ": " << input;
    }
  }
}

TEST(InputFuzz, FlagParsersReturnOnlyInRangeValues) {
  Rng rng(4);
  const std::string seeds[] = {"42", "-7", "0", "3.5e-2",
                               "18446744073709551615", "1e308"};
  for (int i = 0; i < 3000; ++i) {
    std::string token = MutateText(seeds[i % 6], &rng);
    // Command-line arguments are C strings: no embedded NUL.
    for (char& c : token) {
      if (c == '\0') {
        c = '0';
      }
    }
    long long as_int = 0;
    if (ParseInt(token.c_str(), -100, 100, &as_int).ok()) {
      EXPECT_TRUE(as_int >= -100 && as_int <= 100) << token;
      EXPECT_EQ(ParseIntFlag("--int", token.c_str(), -100, 100), as_int);
    }
    uint64_t as_u64 = 0;
    if (ParseU64(token.c_str(), &as_u64).ok()) {
      EXPECT_EQ(ParseU64Flag("--u64", token.c_str()), as_u64) << token;
    }
    double as_double = 0.0;
    if (ParseDouble(token.c_str(), -1.0, 1e9, &as_double).ok()) {
      EXPECT_TRUE(std::isfinite(as_double) && as_double >= -1.0 &&
                  as_double <= 1e9)
          << token;
      EXPECT_EQ(ParseDoubleFlag("--double", token.c_str(), -1.0, 1e9),
                as_double);
    }
  }
}

TEST(InputFuzzDeathTest, FlagParsersExitWithTheDiagnostic) {
  EXPECT_EXIT(ParseIntFlag("--peers", "10k", 1, 100),
              ::testing::ExitedWithCode(1), "--peers: '10k' is not an integer");
  EXPECT_EXIT(ParseDoubleFlag("--drop-prob", "nan", 0.0, 1.0),
              ::testing::ExitedWithCode(1),
              "--drop-prob: 'nan' is not a finite number");
  EXPECT_EXIT(ParseDoubleFlag("--drop-prob", "2", 0.0, 1.0),
              ::testing::ExitedWithCode(1),
              "--drop-prob: 2 out of range \\[0, 1\\]");
  EXPECT_EXIT(ParseU64Flag("--seed", "-3"), ::testing::ExitedWithCode(1),
              "--seed: '-3' must be non-negative");
}

}  // namespace
}  // namespace skypeer
