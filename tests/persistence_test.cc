// Tests of store snapshots: save a preprocessed network, restore into a
// fresh one, and verify identical query answers; plus error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/persistence.h"
#include "skypeer/engine/wire.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

NetworkConfig Config(uint64_t seed) {
  NetworkConfig config;
  config.num_peers = 50;
  config.num_super_peers = 10;
  config.points_per_peer = 40;
  config.dims = 5;
  config.seed = seed;
  return config;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Persistence, RoundTripPreservesAnswers) {
  const std::string path = TempPath("stores_roundtrip.bin");
  NetworkConfig config = Config(1);

  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());

  SkypeerNetwork restored(config);
  ASSERT_FALSE(restored.preprocessed());
  ASSERT_TRUE(LoadStores(&restored, path).ok());
  EXPECT_TRUE(restored.preprocessed());

  // Stores are byte-identical in content.
  for (int sp = 0; sp < original.num_super_peers(); ++sp) {
    EXPECT_EQ(SortedIds(restored.super_peer(sp).store().points),
              SortedIds(original.super_peer(sp).store().points));
  }

  const auto tasks = GenerateWorkload(5, 3, 6, original.num_super_peers(), 7);
  for (const QueryTask& task : tasks) {
    for (Variant variant : {Variant::kFTPM, Variant::kNaive}) {
      const auto a = SortedIds(
          original.ExecuteQuery(task.subspace, task.initiator_sp, variant)
              .skyline.points);
      const auto b = SortedIds(
          restored.ExecuteQuery(task.subspace, task.initiator_sp, variant)
              .skyline.points);
      EXPECT_EQ(a, b);
    }
  }
  std::remove(path.c_str());
}

TEST(Persistence, SaveRequiresPreprocessedNetwork) {
  SkypeerNetwork network(Config(2));
  EXPECT_EQ(SaveStores(network, TempPath("never_written.bin")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Persistence, LoadMissingFileFails) {
  SkypeerNetwork network(Config(3));
  EXPECT_EQ(LoadStores(&network, TempPath("does_not_exist.bin")).code(),
            StatusCode::kNotFound);
}

TEST(Persistence, LoadRejectsShapeMismatch) {
  const std::string path = TempPath("stores_shape.bin");
  NetworkConfig config = Config(4);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());

  NetworkConfig other_dims = Config(4);
  other_dims.dims = 6;
  SkypeerNetwork wrong_dims(other_dims);
  EXPECT_EQ(LoadStores(&wrong_dims, path).code(),
            StatusCode::kInvalidArgument);

  NetworkConfig other_sp = Config(4);
  other_sp.num_super_peers = 5;
  SkypeerNetwork wrong_sp(other_sp);
  EXPECT_EQ(LoadStores(&wrong_sp, path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Persistence, LoadRejectsCorruptedFile) {
  const std::string path = TempPath("stores_corrupt.bin");
  NetworkConfig config = Config(5);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());

  // Truncate the file.
  {
    std::FILE* file = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  SkypeerNetwork restored(config);
  EXPECT_FALSE(LoadStores(&restored, path).ok());
  std::remove(path.c_str());
}

TEST(Persistence, LoadRejectsStoreSizeBeyondTheFile) {
  // A snapshot header whose first store declares 2^62 bytes must be
  // rejected before anything of that size is allocated.
  const std::string path = TempPath("stores_oversized.bin");
  const NetworkConfig config = Config(6);
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const uint32_t header[4] = {0x534b5053, 1,
                                static_cast<uint32_t>(config.dims),
                                static_cast<uint32_t>(config.num_super_peers)};
    const uint64_t encoded_size = uint64_t{1} << 62;
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, file), 1u);
    ASSERT_EQ(std::fwrite(&encoded_size, sizeof(encoded_size), 1, file), 1u);
    std::fclose(file);
  }
  SkypeerNetwork restored(config);
  EXPECT_EQ(LoadStores(&restored, path).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(restored.preprocessed());
  std::remove(path.c_str());
}

/// Writes a snapshot in the on-disk format (header, then per store its
/// byte size and full-space wire encoding) without `SaveStores`, so a test
/// can plant a store no preprocessing would produce.
void WriteSnapshot(const std::string& path, int dims,
                   const std::vector<ResultList>& stores) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  const uint32_t header[4] = {0x534b5053, 1, static_cast<uint32_t>(dims),
                              static_cast<uint32_t>(stores.size())};
  ASSERT_EQ(std::fwrite(header, sizeof(header), 1, file), 1u);
  for (const ResultList& store : stores) {
    const std::vector<uint8_t> encoded =
        EncodeResultList(store, Subspace::FullSpace(dims));
    const uint64_t size = encoded.size();
    ASSERT_EQ(std::fwrite(&size, sizeof(size), 1, file), 1u);
    ASSERT_EQ(std::fwrite(encoded.data(), 1, encoded.size(), file),
              encoded.size());
  }
  std::fclose(file);
}

/// One point of a planted store: its row, id and recorded f.
struct PlantedPoint {
  std::vector<double> row;
  PointId id;
  double f;
};

/// Loads a snapshot whose first store holds `points` (the others empty)
/// into a fresh network of `Config(seed)`'s shape.
Status LoadPlantedStore(uint64_t seed, const char* name,
                        const std::vector<PlantedPoint>& points) {
  const NetworkConfig config = Config(seed);
  std::vector<ResultList> stores;
  for (int sp = 0; sp < config.num_super_peers; ++sp) {
    stores.emplace_back(config.dims);
  }
  for (const PlantedPoint& point : points) {
    stores[0].points.Append(point.row.data(), point.id);
    stores[0].f.push_back(point.f);
  }
  const std::string path = TempPath(name);
  WriteSnapshot(path, config.dims, stores);
  SkypeerNetwork restored(config);
  const Status status = LoadStores(&restored, path);
  EXPECT_EQ(restored.preprocessed(), status.ok());
  std::remove(path.c_str());
  return status;
}

TEST(Persistence, LoadAcceptsAPlantedValidStore) {
  EXPECT_TRUE(LoadPlantedStore(8, "stores_planted_ok.bin",
                               {{{0.1, 0.2, 0.3, 0.4, 0.5}, 0, 0.1},
                                {{0.6, 0.5, 0.4, 0.3, 0.2}, 1, 0.2}})
                  .ok());
}

TEST(Persistence, LoadRejectsANanCoordinate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(LoadPlantedStore(8, "stores_nan.bin",
                             {{{0.1, 0.2, 0.3, 0.4, 0.5}, 0, 0.1},
                              {{nan, 0.5, 0.5, 0.5, 0.5}, 1, 0.5}})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Persistence, LoadRejectsAWrongF) {
  // Sorted by the recorded f, but the second point's true minimum is 0.3:
  // Obs. 5 would prune it (and its dominatees) on a wrong bound.
  EXPECT_EQ(LoadPlantedStore(8, "stores_wrong_f.bin",
                             {{{0.1, 0.2, 0.3, 0.4, 0.5}, 0, 0.1},
                              {{0.3, 0.4, 0.5, 0.6, 0.7}, 1, 0.2}})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Persistence, LoadRejectsADuplicateId) {
  EXPECT_EQ(LoadPlantedStore(8, "stores_duplicate_id.bin",
                             {{{0.1, 0.2, 0.3, 0.4, 0.5}, 7, 0.1},
                              {{0.6, 0.5, 0.4, 0.3, 0.2}, 7, 0.2}})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Persistence, LoadIntoPreprocessedNetworkFails) {
  const std::string path = TempPath("stores_twice.bin");
  NetworkConfig config = Config(6);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());
  // `original` is already preprocessed; AdoptStores must refuse.
  EXPECT_EQ(LoadStores(&original, path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(Persistence, AdoptStoresValidatesInput) {
  SkypeerNetwork network(Config(7));
  std::vector<ResultList> too_few;
  too_few.emplace_back(5);
  EXPECT_EQ(network.AdoptStores(std::move(too_few)).code(),
            StatusCode::kInvalidArgument);

  std::vector<ResultList> wrong_dims;
  for (int i = 0; i < 10; ++i) {
    wrong_dims.emplace_back(4);
  }
  EXPECT_EQ(network.AdoptStores(std::move(wrong_dims)).code(),
            StatusCode::kInvalidArgument);

  std::vector<ResultList> unsorted;
  for (int i = 0; i < 10; ++i) {
    unsorted.emplace_back(5);
  }
  PointSet bad(5, {{0.9, 0.9, 0.9, 0.9, 0.9}, {0.1, 0.1, 0.1, 0.1, 0.1}});
  unsorted[0].points.AppendAll(bad);
  unsorted[0].f = {0.9, 0.1};  // Not sorted.
  EXPECT_EQ(network.AdoptStores(std::move(unsorted)).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skypeer
