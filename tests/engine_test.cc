// Integration tests of the SKYPEER engine: the paper's correctness claim
// (exact answers for every variant, §5.2), pre-processing semantics
// (§5.3), flood/duplicate handling, metrics invariants and the workload
// driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/common/subspace.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

NetworkConfig SmallConfig(uint64_t seed) {
  NetworkConfig config;
  config.num_peers = 60;
  config.num_super_peers = 12;
  config.points_per_peer = 40;
  config.dims = 5;
  config.degree_sp = 3.0;
  config.seed = seed;
  config.retain_peer_data = true;
  return config;
}

// --- configuration validation -------------------------------------------

TEST(NetworkConfigValidation, RejectsBadValues) {
  NetworkConfig config;
  config.dims = 0;
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());
  config.dims = 40;
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());
  config = NetworkConfig();
  config.points_per_peer = -1;
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());
  config = NetworkConfig();
  config.bandwidth = 0.0;
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());
  config = NetworkConfig();
  config.latency = -0.5;
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());
  config = NetworkConfig();
  config.num_peers = 10;
  config.num_super_peers = 11;
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());
  EXPECT_TRUE(SkypeerNetwork::Validate(NetworkConfig()).ok());
}

// --- pre-processing -------------------------------------------------------

TEST(Preprocess, StatsAreConsistent) {
  SkypeerNetwork network(SmallConfig(1));
  PreprocessStats stats = network.Preprocess();
  EXPECT_EQ(stats.total_points, 60u * 40u);
  EXPECT_GT(stats.peer_ext_points, 0u);
  EXPECT_LE(stats.peer_ext_points, stats.total_points);
  EXPECT_LE(stats.super_peer_ext_points, stats.peer_ext_points);
  EXPECT_GT(stats.sel_p(), 0.0);
  EXPECT_LE(stats.sel_p(), 1.0);
  EXPECT_LE(stats.sel_sp(), stats.sel_p());
  EXPECT_LE(stats.sel_ratio(), 1.0);
}

TEST(Preprocess, SuperPeerStoreIsExtSkylineOfItsPeersData) {
  // Rebuild the per-super-peer union from retained data using peer ids
  // and verify each store equals its ext-skyline.
  NetworkConfig config = SmallConfig(2);
  SkypeerNetwork network(config);
  network.Preprocess();
  const PointSet& all = network.all_data();
  for (int sp = 0; sp < network.num_super_peers(); ++sp) {
    PointSet sp_data(config.dims);
    for (int peer : network.overlay().super_peer_peers[sp]) {
      // Peer `peer` generated ids [peer*ppp, (peer+1)*ppp).
      const PointId lo = static_cast<PointId>(peer) * config.points_per_peer;
      const PointId hi = lo + config.points_per_peer;
      for (size_t i = 0; i < all.size(); ++i) {
        if (all.id(i) >= lo && all.id(i) < hi) {
          sp_data.AppendFrom(all, i);
        }
      }
    }
    const std::vector<PointId> expected = SortedIds(BnlSkyline(
        sp_data, Subspace::FullSpace(config.dims), /*ext=*/true));
    EXPECT_EQ(SortedIds(network.super_peer(sp).store().points), expected)
        << "super-peer " << sp;
    EXPECT_TRUE(network.super_peer(sp).store().IsSorted());
  }
}

TEST(Preprocess, StoresTotalMatchesStats) {
  SkypeerNetwork network(SmallConfig(3));
  PreprocessStats stats = network.Preprocess();
  size_t total = 0;
  for (int sp = 0; sp < network.num_super_peers(); ++sp) {
    total += network.super_peer(sp).store().size();
  }
  EXPECT_EQ(total, stats.super_peer_ext_points);
}

// --- exactness sweep (the paper's correctness theorem) --------------------

class ExactnessTest : public ::testing::TestWithParam<
                          std::tuple<Distribution, Variant, int>> {};

TEST_P(ExactnessTest, DistributedAnswerEqualsCentralizedSkyline) {
  const auto [distribution, variant, k] = GetParam();
  NetworkConfig config = SmallConfig(1000 + static_cast<int>(distribution));
  config.distribution = distribution;
  SkypeerNetwork network(config);
  network.Preprocess();

  const auto tasks =
      GenerateWorkload(config.dims, k, /*num_queries=*/6,
                       network.num_super_peers(), /*seed=*/99 + k);
  for (const QueryTask& task : tasks) {
    QueryResult result =
        network.ExecuteQuery(task.subspace, task.initiator_sp, variant);
    EXPECT_EQ(SortedIds(result.skyline.points),
              SortedIds(network.GroundTruthSkyline(task.subspace)))
        << VariantName(variant) << " u=" << task.subspace.ToString()
        << " init=" << task.initiator_sp;
    EXPECT_TRUE(result.skyline.IsSorted());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactnessTest,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kClustered,
                                         Distribution::kAnticorrelated),
                       ::testing::ValuesIn(kAllVariants),
                       ::testing::Values(1, 2, 3, 5)),
    [](const auto& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_" +
             VariantName(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// Exhaustive over all subspaces of a small network.
TEST(Exactness, AllSubspacesAllVariants) {
  NetworkConfig config = SmallConfig(7);
  config.dims = 4;
  SkypeerNetwork network(config);
  network.Preprocess();
  for (Subspace u : AllSubspaces(4)) {
    const std::vector<PointId> truth =
        SortedIds(network.GroundTruthSkyline(u));
    for (Variant variant : kAllVariants) {
      QueryResult result = network.ExecuteQuery(u, /*initiator_sp=*/0,
                                                variant);
      EXPECT_EQ(SortedIds(result.skyline.points), truth)
          << VariantName(variant) << " " << u.ToString();
    }
  }
}

// Dense backbone floods produce many duplicate query deliveries; the
// protocol must still terminate and stay exact.
TEST(Exactness, DenseBackboneWithDuplicates) {
  NetworkConfig config = SmallConfig(8);
  config.num_super_peers = 10;
  config.degree_sp = 8.0;  // Nearly complete graph.
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 1, 4});
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  for (Variant variant : kAllVariants) {
    QueryResult result = network.ExecuteQuery(u, 4, variant);
    EXPECT_EQ(SortedIds(result.skyline.points), truth)
        << VariantName(variant);
  }
}

TEST(Exactness, SingleSuperPeerDegenerateNetwork) {
  NetworkConfig config = SmallConfig(9);
  config.num_super_peers = 1;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({1, 2});
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  for (Variant variant : kAllVariants) {
    QueryResult result = network.ExecuteQuery(u, 0, variant);
    EXPECT_EQ(SortedIds(result.skyline.points), truth);
    EXPECT_EQ(result.metrics.bytes_transferred, 0u);  // Nobody to talk to.
  }
}

TEST(Exactness, TwoSuperPeers) {
  NetworkConfig config = SmallConfig(10);
  config.num_super_peers = 2;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FullSpace(config.dims);
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  for (Variant variant : kAllVariants) {
    for (int initiator : {0, 1}) {
      QueryResult result = network.ExecuteQuery(u, initiator, variant);
      EXPECT_EQ(SortedIds(result.skyline.points), truth);
    }
  }
}

TEST(Exactness, EmptyPeersYieldEmptySkyline) {
  NetworkConfig config = SmallConfig(11);
  config.points_per_peer = 0;
  SkypeerNetwork network(config);
  network.Preprocess();
  for (Variant variant : kAllVariants) {
    QueryResult result =
        network.ExecuteQuery(Subspace::FromDims({0}), 0, variant);
    EXPECT_TRUE(result.skyline.empty()) << VariantName(variant);
  }
}

TEST(Exactness, FilterBroadcastStaysExact) {
  // The sampled filter-point broadcast is a pure communication
  // optimization: with --filter-set on, every variant still answers with
  // the exact centralized skyline (filter points prune only what the
  // initiator's own merge input would have removed).
  NetworkConfig config = SmallConfig(21);
  config.filter_set_size = 8;
  SkypeerNetwork network(config);
  network.Preprocess();
  const auto tasks = GenerateWorkload(config.dims, 3, /*num_queries=*/6,
                                      network.num_super_peers(), /*seed=*/33);
  for (const QueryTask& task : tasks) {
    const auto truth = SortedIds(network.GroundTruthSkyline(task.subspace));
    for (Variant variant : kAllVariants) {
      QueryResult result =
          network.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      EXPECT_EQ(SortedIds(result.skyline.points), truth)
          << VariantName(variant) << " u=" << task.subspace.ToString();
    }
    QueryResult pipe = network.ExecuteQuery(task.subspace, task.initiator_sp,
                                            Variant::kPipeline);
    EXPECT_EQ(SortedIds(pipe.skyline.points), truth);
  }
}

TEST(Exactness, RepeatedQueriesAreStable) {
  NetworkConfig config = SmallConfig(12);
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 3});
  const auto first =
      SortedIds(network.ExecuteQuery(u, 2, Variant::kFTPM).skyline.points);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(
        SortedIds(network.ExecuteQuery(u, 2, Variant::kFTPM).skyline.points),
        first);
  }
}

TEST(Exactness, ResultIdsAreUnique) {
  NetworkConfig config = SmallConfig(13);
  SkypeerNetwork network(config);
  network.Preprocess();
  QueryResult result =
      network.ExecuteQuery(Subspace::FromDims({0, 1}), 1, Variant::kRTPM);
  const auto ids = SortedIds(result.skyline.points);
  const std::set<PointId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size());
}

// --- metrics invariants ----------------------------------------------------

TEST(Metrics, BasicSanity) {
  SkypeerNetwork network(SmallConfig(14));
  network.Preprocess();
  for (Variant variant : kAllVariants) {
    QueryResult result =
        network.ExecuteQuery(Subspace::FromDims({0, 2}), 3, variant);
    EXPECT_GT(result.metrics.total_time_s, 0.0);
    EXPECT_GE(result.metrics.total_time_s,
              result.metrics.computational_time_s);
    EXPECT_GT(result.metrics.bytes_transferred, 0u);
    EXPECT_GE(result.metrics.messages,
              static_cast<uint64_t>(network.num_super_peers() - 1));
    EXPECT_EQ(result.metrics.result_size, result.skyline.size());
  }
}

// With zero CPU the byte accounting is fully deterministic, enabling the
// paper's qualitative claims to be asserted exactly.
class DeterministicVolumeTest : public ::testing::Test {
 protected:
  static NetworkConfig Config(uint64_t seed) {
    NetworkConfig config = SmallConfig(seed);
    config.measure_cpu = false;
    return config;
  }
};

TEST_F(DeterministicVolumeTest, ProgressiveMergingNeverShipsMore) {
  SkypeerNetwork network(Config(15));
  network.Preprocess();
  const auto tasks = GenerateWorkload(5, 3, 8, network.num_super_peers(), 5);
  for (const QueryTask& task : tasks) {
    const auto ftfm =
        network.ExecuteQuery(task.subspace, task.initiator_sp, Variant::kFTFM);
    const auto ftpm =
        network.ExecuteQuery(task.subspace, task.initiator_sp, Variant::kFTPM);
    const auto rtfm =
        network.ExecuteQuery(task.subspace, task.initiator_sp, Variant::kRTFM);
    const auto rtpm =
        network.ExecuteQuery(task.subspace, task.initiator_sp, Variant::kRTPM);
    EXPECT_LE(ftpm.metrics.bytes_transferred, ftfm.metrics.bytes_transferred);
    EXPECT_LE(rtpm.metrics.bytes_transferred, rtfm.metrics.bytes_transferred);
  }
}

TEST_F(DeterministicVolumeTest, RefinedThresholdNeverShipsMoreThanFixed) {
  SkypeerNetwork network(Config(16));
  network.Preprocess();
  const auto tasks = GenerateWorkload(5, 2, 8, network.num_super_peers(), 6);
  for (const QueryTask& task : tasks) {
    const auto ftfm =
        network.ExecuteQuery(task.subspace, task.initiator_sp, Variant::kFTFM);
    const auto rtfm =
        network.ExecuteQuery(task.subspace, task.initiator_sp, Variant::kRTFM);
    EXPECT_LE(rtfm.metrics.bytes_transferred, ftfm.metrics.bytes_transferred);
  }
}

TEST_F(DeterministicVolumeTest, ThresholdedVariantsBeatNaive) {
  SkypeerNetwork network(Config(17));
  network.Preprocess();
  const auto tasks = GenerateWorkload(5, 3, 8, network.num_super_peers(), 7);
  for (const QueryTask& task : tasks) {
    const auto naive = network.ExecuteQuery(task.subspace, task.initiator_sp,
                                            Variant::kNaive);
    for (Variant variant :
         {Variant::kFTFM, Variant::kFTPM, Variant::kRTFM, Variant::kRTPM}) {
      const auto v =
          network.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      EXPECT_LE(v.metrics.bytes_transferred, naive.metrics.bytes_transferred)
          << VariantName(variant);
    }
  }
}

TEST_F(DeterministicVolumeTest, VolumeIsSeedDeterministic) {
  const Subspace u = Subspace::FromDims({0, 4});
  uint64_t bytes[2];
  for (int round = 0; round < 2; ++round) {
    SkypeerNetwork network(Config(18));
    network.Preprocess();
    bytes[round] =
        network.ExecuteQuery(u, 1, Variant::kFTPM).metrics.bytes_transferred;
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

// --- cache filter path vs. fresh threshold scan ----------------------------

/// Full content signature of a result list: (id, f, coords) per entry.
std::vector<std::vector<double>> FullSignature(const ResultList& list) {
  std::vector<std::vector<double>> rows;
  rows.reserve(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    std::vector<double> row;
    row.push_back(static_cast<double>(list.points.id(i)));
    row.push_back(list.f[i]);
    for (int d = 0; d < list.points.dims(); ++d) {
      row.push_back(list.points[i][d]);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(CacheEquivalence, FilterPathRepliesMatchFreshScansForAllVariants) {
  // The cache path answers a query by replaying the cached unconstrained
  // scan trace under the incoming threshold; the reply — and hence
  // every transfer-derived metric — must match the fresh threshold scan
  // for the same (subspace, threshold_in) at every super-peer. (A cached
  // skyline *list* would not suffice: the store is f-sorted in full
  // space while dominance is tested in the query subspace, so the
  // truncated scan can keep a point whose dominator lies beyond the
  // threshold cutoff — the unconstrained skyline has already dropped
  // it.) RT*M tightens thresholds mid-stream along the flood, so
  // repeating each subspace from several initiators exercises cache hits
  // under different (and progressively tighter) incoming thresholds.
  NetworkConfig scan_config = SmallConfig(19);
  scan_config.measure_cpu = false;  // Virtual clocks must be exact.
  scan_config.enable_cache = false;
  NetworkConfig cache_config = scan_config;
  cache_config.enable_cache = true;

  SkypeerNetwork scan_network(scan_config);
  scan_network.Preprocess();
  SkypeerNetwork cache_network(cache_config);
  cache_network.Preprocess();

  const std::vector<Subspace> subspaces = {Subspace::FromDims({0, 2}),
                                           Subspace::FromDims({1, 3, 4}),
                                           Subspace::FromDims({2})};
  for (Variant variant : kAllVariants) {
    for (int round = 0; round < 3; ++round) {  // Round > 0: cache hits.
      for (size_t s = 0; s < subspaces.size(); ++s) {
        const int initiator = static_cast<int>((round * 5 + s * 3) %
                                               scan_network.num_super_peers());
        const QueryResult scan =
            scan_network.ExecuteQuery(subspaces[s], initiator, variant);
        const QueryResult cache =
            cache_network.ExecuteQuery(subspaces[s], initiator, variant);
        const std::string context = std::string(VariantName(variant)) +
                                    " u=" + subspaces[s].ToString() +
                                    " round " + std::to_string(round);
        EXPECT_EQ(FullSignature(cache.skyline), FullSignature(scan.skyline))
            << context;
        EXPECT_EQ(cache.metrics.bytes_transferred,
                  scan.metrics.bytes_transferred)
            << context;
        EXPECT_EQ(cache.metrics.messages, scan.metrics.messages) << context;
        EXPECT_EQ(cache.metrics.result_size, scan.metrics.result_size)
            << context;
        EXPECT_EQ(cache.metrics.total_time_s, scan.metrics.total_time_s)
            << context;
        EXPECT_EQ(cache.metrics.computational_time_s,
                  scan.metrics.computational_time_s)
            << context;
        EXPECT_EQ(cache.metrics.super_peers_participated,
                  scan.metrics.super_peers_participated)
            << context;
      }
    }
  }
}

// --- workload driver -------------------------------------------------------

TEST(Workload, GeneratesRequestedShape) {
  const auto tasks = GenerateWorkload(8, 3, 100, 50, 42);
  ASSERT_EQ(tasks.size(), 100u);
  for (const QueryTask& task : tasks) {
    EXPECT_EQ(task.subspace.Count(), 3);
    EXPECT_TRUE(Subspace::FullSpace(8).IsSupersetOf(task.subspace));
    EXPECT_GE(task.initiator_sp, 0);
    EXPECT_LT(task.initiator_sp, 50);
  }
}

TEST(Workload, DeterministicBySeed) {
  const auto a = GenerateWorkload(8, 3, 20, 10, 1);
  const auto b = GenerateWorkload(8, 3, 20, 10, 1);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].subspace, b[i].subspace);
    EXPECT_EQ(a[i].initiator_sp, b[i].initiator_sp);
  }
}

TEST(Workload, CoversDifferentSubspaces) {
  const auto tasks = GenerateWorkload(8, 3, 60, 10, 3);
  std::set<uint32_t> masks;
  for (const QueryTask& task : tasks) {
    masks.insert(task.subspace.mask());
  }
  EXPECT_GT(masks.size(), 10u);  // C(8,3) = 56 possible.
}

TEST(Workload, RunWorkloadAggregates) {
  SkypeerNetwork network(SmallConfig(19));
  network.Preprocess();
  const auto tasks = GenerateWorkload(5, 2, 5, network.num_super_peers(), 9);
  const AggregateMetrics aggregate =
      RunWorkload(&network, tasks, Variant::kFTPM);
  EXPECT_EQ(aggregate.queries, 5u);
  EXPECT_GT(aggregate.avg_total_s(), 0.0);
  EXPECT_GT(aggregate.avg_kb(), 0.0);
  EXPECT_GT(aggregate.avg_result(), 0.0);
  EXPECT_GT(aggregate.avg_messages(), 0.0);
}

}  // namespace
}  // namespace skypeer

namespace skypeer {
namespace {

TEST(MetricSeries, Statistics) {
  MetricSeries series;
  EXPECT_EQ(series.mean(), 0.0);
  EXPECT_EQ(series.Percentile(50), 0.0);
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    series.Add(v);
  }
  EXPECT_EQ(series.count(), 5u);
  EXPECT_DOUBLE_EQ(series.mean(), 3.0);
  EXPECT_EQ(series.min(), 1.0);
  EXPECT_EQ(series.max(), 5.0);
  EXPECT_EQ(series.Percentile(50), 3.0);
  EXPECT_EQ(series.Percentile(100), 5.0);
  EXPECT_EQ(series.Percentile(0), 1.0);
  EXPECT_EQ(series.Percentile(90), 5.0);
  EXPECT_EQ(series.Percentile(20), 1.0);
}

TEST(MetricSeries, DegenerateCasesAreDefinedNotNan) {
  // Empty series and percentile edges are defined values, never NaN or
  // out-of-bounds reads: mean/min/max of an empty series are 0.0,
  // Percentile clamps rank 0 to the minimum, and a zero-query aggregate
  // reports zeros across the board.
  MetricSeries empty;
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.min(), 0.0);
  EXPECT_EQ(empty.max(), 0.0);
  EXPECT_EQ(empty.Percentile(0), 0.0);
  EXPECT_EQ(empty.Percentile(100), 0.0);

  MetricSeries one;
  one.Add(2.5);
  EXPECT_EQ(one.Percentile(0), 2.5);  // Rank clamp: Percentile(0) ≡ min.
  EXPECT_EQ(one.Percentile(100), 2.5);
  EXPECT_EQ(one.min(), 2.5);

  AggregateMetrics aggregate;
  EXPECT_EQ(aggregate.queries, 0u);
  EXPECT_EQ(aggregate.avg_kb(), 0.0);
  EXPECT_EQ(aggregate.avg_total_s(), 0.0);
  EXPECT_EQ(aggregate.avg_coverage(), 0.0);
}

TEST(Metrics, CoverageIsDefinedWithoutAReliabilityReport) {
  // With the reliable protocol off, super_peers_total stays 0 — no
  // coverage report exists, and that degenerate case is defined as full
  // coverage rather than a division by zero.
  QueryMetrics metrics;
  EXPECT_EQ(metrics.super_peers_total, 0);
  EXPECT_EQ(metrics.coverage(), 1.0);
  metrics.super_peers_total = 8;
  metrics.super_peers_reached = 2;
  EXPECT_DOUBLE_EQ(metrics.coverage(), 0.25);
}

TEST(MetricSeries, AggregatePopulatesAllSeries) {
  AggregateMetrics aggregate;
  QueryMetrics metrics;
  metrics.computational_time_s = 0.5;
  metrics.total_time_s = 2.0;
  metrics.bytes_transferred = 2048;
  metrics.messages = 10;
  metrics.result_size = 7;
  metrics.store_points_scanned = 100;
  aggregate.Add(metrics);
  aggregate.Add(metrics);
  EXPECT_EQ(aggregate.queries, 2u);
  EXPECT_DOUBLE_EQ(aggregate.avg_comp_s(), 0.5);
  EXPECT_DOUBLE_EQ(aggregate.avg_total_s(), 2.0);
  EXPECT_DOUBLE_EQ(aggregate.avg_kb(), 2.0);
  EXPECT_DOUBLE_EQ(aggregate.avg_messages(), 10.0);
  EXPECT_DOUBLE_EQ(aggregate.avg_result(), 7.0);
  EXPECT_DOUBLE_EQ(aggregate.scanned.mean(), 100.0);
}

TEST(HypercubeNetwork, QueriesStayExact) {
  NetworkConfig config = SmallConfig(77);
  config.topology = BackboneTopology::kHypercube;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 2});
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  for (Variant variant : kAllVariants) {
    QueryResult result = network.ExecuteQuery(u, 3, variant);
    EXPECT_EQ(SortedIds(result.skyline.points), truth) << VariantName(variant);
  }
  QueryResult pipe = network.ExecuteQuery(u, 3, Variant::kPipeline);
  EXPECT_EQ(SortedIds(pipe.skyline.points), truth);
}

}  // namespace
}  // namespace skypeer
