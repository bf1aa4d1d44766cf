// Tests of dynamic membership (peer joins and departures — the paper's
// §5.3 join protocol and its future-work failure handling) and of the
// per-subspace result cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/subspace_cache.h"
#include "skypeer/sim/churn_plan.h"
#include "skypeer/storage/buffer_manager.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

NetworkConfig DynamicConfig(uint64_t seed) {
  NetworkConfig config;
  config.num_peers = 40;
  config.num_super_peers = 8;
  config.points_per_peer = 30;
  config.dims = 4;
  config.seed = seed;
  config.retain_peer_data = true;
  config.dynamic_membership = true;
  return config;
}

void ExpectAllVariantsExact(SkypeerNetwork* network, Subspace u) {
  const auto truth = SortedIds(network->GroundTruthSkyline(u));
  for (Variant variant : kAllVariants) {
    QueryResult result = network->ExecuteQuery(u, 0, variant);
    EXPECT_EQ(SortedIds(result.skyline.points), truth) << VariantName(variant);
  }
}

TEST(Churn, JoinRequiresDynamicMembership) {
  NetworkConfig config = DynamicConfig(1);
  config.dynamic_membership = false;
  SkypeerNetwork network(config);
  network.Preprocess();
  Rng rng(9);
  Status status = network.JoinPeer(0, GenerateUniform(4, 10, &rng));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(Churn, JoinBeforePreprocessFails) {
  SkypeerNetwork network(DynamicConfig(2));
  Rng rng(9);
  Status status = network.JoinPeer(0, GenerateUniform(4, 10, &rng));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(Churn, JoinRejectsBadArguments) {
  SkypeerNetwork network(DynamicConfig(3));
  network.Preprocess();
  Rng rng(9);
  EXPECT_EQ(network.JoinPeer(99, GenerateUniform(4, 10, &rng)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(network.JoinPeer(0, GenerateUniform(3, 10, &rng)).code(),
            StatusCode::kInvalidArgument);
}

TEST(Churn, JoinedPeerContributesToQueries) {
  SkypeerNetwork network(DynamicConfig(4));
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 2});

  // A joining peer with an unbeatable point.
  PointSet data(4, {{0.0, 0.0, 0.0, 0.0}});
  int peer_id = -1;
  ASSERT_TRUE(network.JoinPeer(3, std::move(data), &peer_id).ok());
  EXPECT_EQ(peer_id, 40);

  QueryResult result = network.ExecuteQuery(u, 5, Variant::kFTPM);
  // The origin dominates everything strictly: it is the only skyline
  // point, under the id assigned at join time (40 peers * 30 points).
  ASSERT_EQ(result.skyline.size(), 1u);
  EXPECT_EQ(result.skyline.points.id(0), 40u * 30u);
  ExpectAllVariantsExact(&network, u);
}

TEST(Churn, SequenceOfJoinsStaysExact) {
  SkypeerNetwork network(DynamicConfig(5));
  network.Preprocess();
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    const int sp = static_cast<int>(rng.UniformInt(0, 7));
    ASSERT_TRUE(
        network.JoinPeer(sp, GenerateUniform(4, 20, &rng)).ok());
    ExpectAllVariantsExact(&network, Subspace::FromDims({1, 3}));
    ExpectAllVariantsExact(&network, Subspace::FullSpace(4));
  }
  EXPECT_EQ(network.total_points(), 40u * 30u + 5u * 20u);
}

TEST(Churn, RemoveUnknownPeerFails) {
  SkypeerNetwork network(DynamicConfig(6));
  network.Preprocess();
  EXPECT_EQ(network.RemovePeer(1234).code(), StatusCode::kNotFound);
}

TEST(Churn, RemovedPeerStopsContributing) {
  SkypeerNetwork network(DynamicConfig(7));
  network.Preprocess();
  const Subspace u = Subspace::FullSpace(4);

  // Find the peer owning the first skyline point and remove it.
  QueryResult before = network.ExecuteQuery(u, 0, Variant::kFTFM);
  ASSERT_FALSE(before.skyline.empty());
  const PointId witness = before.skyline.points.id(0);
  const int owner = static_cast<int>(witness / 30);  // 30 points per peer.
  ASSERT_TRUE(network.RemovePeer(owner).ok());

  QueryResult after = network.ExecuteQuery(u, 0, Variant::kFTFM);
  for (PointId id : after.skyline.points.Ids()) {
    EXPECT_TRUE(id < static_cast<PointId>(owner) * 30 ||
                id >= static_cast<PointId>(owner + 1) * 30);
  }
  ExpectAllVariantsExact(&network, u);
  EXPECT_EQ(network.total_points(), 39u * 30u);
}

TEST(Churn, RemovalResurrectsExtDominatedPoints) {
  // The reason super-peers retain per-peer lists: removing the peer that
  // ext-dominated a point must bring that point back.
  SkypeerNetwork network(DynamicConfig(8));
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 1});

  // Join a dominator peer, then remove it again.
  int dominator_id = -1;
  PointSet dominator(4, {{0.0, 0.0, 0.0, 0.0}});
  const auto truth_before = SortedIds(network.GroundTruthSkyline(u));
  ASSERT_TRUE(network.JoinPeer(0, std::move(dominator), &dominator_id).ok());
  QueryResult dominated = network.ExecuteQuery(u, 0, Variant::kRTPM);
  EXPECT_EQ(dominated.skyline.size(), 1u);

  ASSERT_TRUE(network.RemovePeer(dominator_id).ok());
  QueryResult restored = network.ExecuteQuery(u, 0, Variant::kRTPM);
  EXPECT_EQ(SortedIds(restored.skyline.points), truth_before);
}

TEST(Churn, DrainAllPeersOfOneSuperPeer) {
  SkypeerNetwork network(DynamicConfig(9));
  network.Preprocess();
  const std::vector<int> victims = network.overlay().super_peer_peers[2];
  for (int peer : victims) {
    ASSERT_TRUE(network.RemovePeer(peer).ok());
  }
  EXPECT_TRUE(network.super_peer(2).store().empty());
  ExpectAllVariantsExact(&network, Subspace::FromDims({0, 3}));
}

TEST(Churn, DrainedSuperPeerStillAnswersAndInitiates) {
  // Regression: rebuilding a store from zero retained lists used to trip
  // `SKYPEER_CHECK(dims > 0)` inside MergeSortedSkylines (no dims
  // source). The drained super-peer must keep serving exact answers.
  SkypeerNetwork network(DynamicConfig(11));
  network.Preprocess();
  const std::vector<int> victims = network.overlay().super_peer_peers[3];
  ASSERT_FALSE(victims.empty());
  for (int peer : victims) {
    ASSERT_TRUE(network.RemovePeer(peer).ok());
  }
  EXPECT_TRUE(network.super_peer(3).store().empty());
  ExpectAllVariantsExact(&network, Subspace::FromDims({1, 2}));
  ExpectAllVariantsExact(&network, Subspace::FullSpace(4));
  // The drained super-peer can also initiate.
  const QueryResult from_drained =
      network.ExecuteQuery(Subspace::FromDims({0, 3}), 3, Variant::kRTPM);
  EXPECT_EQ(SortedIds(from_drained.skyline.points),
            SortedIds(network.GroundTruthSkyline(Subspace::FromDims({0, 3}))));
}

TEST(Churn, MixedJoinLeaveStress) {
  SkypeerNetwork network(DynamicConfig(10));
  network.Preprocess();
  Rng rng(4242);
  std::vector<int> removable;
  for (int peer = 0; peer < 40; ++peer) {
    removable.push_back(peer);
  }
  for (int round = 0; round < 12; ++round) {
    if (rng.Uniform() < 0.5 || removable.empty()) {
      int peer_id = -1;
      const int sp = static_cast<int>(rng.UniformInt(0, 7));
      ASSERT_TRUE(network
                      .JoinPeer(sp,
                                GenerateUniform(4, 1 + round % 25, &rng),
                                &peer_id)
                      .ok());
      removable.push_back(peer_id);
    } else {
      const size_t victim = rng.UniformInt(0, removable.size() - 1);
      ASSERT_TRUE(network.RemovePeer(removable[victim]).ok());
      removable.erase(removable.begin() + victim);
    }
  }
  ExpectAllVariantsExact(&network, Subspace::FromDims({0, 1, 2}));
  ExpectAllVariantsExact(&network, Subspace::FullSpace(4));
}

// --- result cache ---------------------------------------------------------

TEST(Cache, CachedQueriesStayExact) {
  NetworkConfig config = DynamicConfig(11);
  config.enable_cache = true;
  SkypeerNetwork network(config);
  network.Preprocess();
  const auto tasks = GenerateWorkload(4, 2, 10, network.num_super_peers(), 3);
  for (const QueryTask& task : tasks) {
    const auto truth = SortedIds(network.GroundTruthSkyline(task.subspace));
    for (Variant variant : kAllVariants) {
      QueryResult result =
          network.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      EXPECT_EQ(SortedIds(result.skyline.points), truth)
          << VariantName(variant) << " " << task.subspace.ToString();
    }
    // Repeat (cache hit path).
    QueryResult repeat =
        network.ExecuteQuery(task.subspace, task.initiator_sp,
                             Variant::kRTPM);
    EXPECT_EQ(SortedIds(repeat.skyline.points), truth);
  }
}

TEST(Cache, InvalidatedByChurn) {
  NetworkConfig config = DynamicConfig(12);
  config.enable_cache = true;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 2});

  // Warm the cache.
  network.ExecuteQuery(u, 0, Variant::kFTPM);

  // Join a dominator: the cached lists must not leak stale results.
  ASSERT_TRUE(network.JoinPeer(1, PointSet(4, {{0, 0, 0, 0}})).ok());
  QueryResult result = network.ExecuteQuery(u, 0, Variant::kFTPM);
  ASSERT_EQ(result.skyline.size(), 1u);
  EXPECT_EQ(SortedIds(result.skyline.points),
            SortedIds(network.GroundTruthSkyline(u)));
}

TEST(Cache, MatchesUncachedAcrossSeeds) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    NetworkConfig cached_config = DynamicConfig(seed);
    cached_config.enable_cache = true;
    NetworkConfig plain_config = DynamicConfig(seed);
    plain_config.enable_cache = false;

    SkypeerNetwork cached(cached_config);
    cached.Preprocess();
    SkypeerNetwork plain(plain_config);
    plain.Preprocess();

    const auto tasks = GenerateWorkload(4, 3, 6, cached.num_super_peers(),
                                        seed);
    for (const QueryTask& task : tasks) {
      for (Variant variant : {Variant::kFTFM, Variant::kRTPM}) {
        const auto a = SortedIds(
            cached.ExecuteQuery(task.subspace, task.initiator_sp, variant)
                .skyline.points);
        const auto b = SortedIds(
            plain.ExecuteQuery(task.subspace, task.initiator_sp, variant)
                .skyline.points);
        EXPECT_EQ(a, b);
      }
    }
  }
}

TEST(Cache, ReplicaAfterChurnSharesTheParentsEntries) {
  // Replica stores are copies of the parent's, so a replica built after
  // churn must serve from the parent's warm entries — including those of
  // the churned super-peer, whose store epoch is past 1 — and answer
  // exactly like the parent.
  NetworkConfig config = DynamicConfig(14);
  config.measure_cpu = false;
  SkypeerNetwork network(config);
  network.Preprocess();
  sim::ChurnEvent event;
  event.kind = sim::ChurnKind::kJoin;
  event.node = 2;
  event.seed = 5;
  ASSERT_TRUE(network.ApplyChurnEvent(event).ok());
  ASSERT_GT(network.super_peer(2).store_epoch(), 1u);

  const Subspace u = Subspace::FromDims({0, 1, 3});
  const QueryResult original = network.ExecuteQuery(u, 4, Variant::kRTPM);
  const SubspaceScanTraceCache::Stats warm = network.result_cache()->stats();
  ASSERT_EQ(warm.misses, static_cast<uint64_t>(network.num_super_peers()));

  const auto replica = network.CloneForQueries();
  for (int sp = 0; sp < network.num_super_peers(); ++sp) {
    EXPECT_EQ(replica->super_peer(sp).store_epoch(),
              network.super_peer(sp).store_epoch());
  }
  const QueryResult served = replica->ExecuteQuery(u, 4, Variant::kRTPM);
  const SubspaceScanTraceCache::Stats after = network.result_cache()->stats();
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_GT(after.hits, warm.hits);
  EXPECT_EQ(after.entries, warm.entries);
  EXPECT_EQ(SortedIds(served.skyline.points),
            SortedIds(original.skyline.points));
  EXPECT_EQ(served.metrics.bytes_transferred,
            original.metrics.bytes_transferred);
  EXPECT_EQ(served.metrics.total_time_s, original.metrics.total_time_s);
  EXPECT_EQ(served.metrics.computational_time_s,
            original.metrics.computational_time_s);
}

TEST(Cache, ColdQueryMissesOncePerScanningSuperPeer) {
  // One query runs the protocol twice (configured links, then infinite
  // bandwidth). On a cold fault-free network each scanning super-peer
  // fills its entry once in run 1; run 2 is served from the scan memo or
  // by replaying that entry — also for RT*M, whose refined thresholds
  // reach some nodes in a different order in run 2. The naive baseline
  // never uses the cache.
  std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
  variants.push_back(Variant::kPipeline);
  for (Variant variant : variants) {
    NetworkConfig config = DynamicConfig(15);
    config.measure_cpu = false;
    SkypeerNetwork network(config);
    network.Preprocess();
    const QueryResult result =
        network.ExecuteQuery(Subspace::FromDims({0, 2, 3}), 6, variant);
    const uint64_t expected =
        variant == Variant::kNaive
            ? 0
            : static_cast<uint64_t>(result.metrics.super_peers_participated);
    EXPECT_EQ(network.result_cache()->stats().misses, expected)
        << VariantName(variant);
    EXPECT_EQ(result.metrics.super_peers_participated,
              network.num_super_peers())
        << VariantName(variant);
  }
}

// --- epoch-versioned stores ---------------------------------------------

std::vector<std::vector<double>> StoreSignature(const ResultList& list) {
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

TEST(Epochs, PinServesRetiredStoreUntilUnpin) {
  Rng rng(3);
  SuperPeer sp(0, /*dims=*/3, WireModel{});
  EXPECT_EQ(sp.store_epoch(), 0u);

  const ResultList first = BuildSortedByF(GenerateUniform(3, 64, &rng));
  sp.SetStore(first);
  EXPECT_EQ(sp.store_epoch(), 1u);
  EXPECT_EQ(sp.RetiredEpochCount(), 0u);

  // A pinned epoch survives a later install and keeps serving scans.
  const uint64_t pinned = sp.PinStoreEpoch();
  EXPECT_EQ(pinned, 1u);
  const ResultList second = BuildSortedByF(GenerateUniform(3, 32, &rng));
  sp.SetStore(second);
  EXPECT_EQ(sp.store_epoch(), 2u);
  EXPECT_EQ(sp.RetiredEpochCount(), 1u);
  EXPECT_EQ(sp.View().size(), first.size());
  EXPECT_EQ(sp.MaterializeStore().size(), second.size());

  // Releasing the last pin drops the retired epoch and the view snaps to
  // the current store.
  sp.UnpinStoreEpoch(pinned);
  EXPECT_EQ(sp.RetiredEpochCount(), 0u);
  EXPECT_EQ(sp.View().size(), second.size());

  // Pinning with no intervening install retires nothing.
  const uint64_t current = sp.PinStoreEpoch();
  EXPECT_EQ(current, 2u);
  sp.UnpinStoreEpoch(current);
  EXPECT_EQ(sp.RetiredEpochCount(), 0u);
  EXPECT_EQ(sp.View().size(), second.size());
}

TEST(Epochs, PagedPinKeepsRetiredPagesReadable) {
  Rng rng(4);
  BufferManager buffer(/*page_size=*/4096, /*capacity=*/4);
  SuperPeer sp(0, /*dims=*/3, WireModel{});
  sp.ConfigurePaging(&buffer, 4096);

  const ResultList first = BuildSortedByF(GenerateUniform(3, 96, &rng));
  sp.SetStore(first);
  const uint64_t pinned = sp.PinStoreEpoch();

  const ResultList second = BuildSortedByF(GenerateUniform(3, 48, &rng));
  sp.SetStore(second);
  EXPECT_EQ(sp.RetiredEpochCount(), 1u);

  // The retired epoch's pages are intact: decoding the pinned view
  // reproduces the first store bit-for-bit even though a newer paged
  // store has been installed over it.
  StoreView view = sp.View();
  ASSERT_TRUE(view.paged());
  EXPECT_EQ(StoreSignature(view.paged_store()->Materialize()),
            StoreSignature(first));
  EXPECT_EQ(StoreSignature(sp.MaterializeStore()), StoreSignature(second));

  sp.UnpinStoreEpoch(pinned);
  EXPECT_EQ(sp.RetiredEpochCount(), 0u);
  EXPECT_EQ(StoreSignature(sp.View().paged_store()->Materialize()),
            StoreSignature(second));
}

// --- scheduled churn ------------------------------------------------------

void ExpectSameMetrics(const QueryMetrics& a, const QueryMetrics& b,
                       const std::string& context, bool include_ops) {
  EXPECT_EQ(a.computational_time_s, b.computational_time_s) << context;
  EXPECT_EQ(a.total_time_s, b.total_time_s) << context;
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << context;
  EXPECT_EQ(a.messages, b.messages) << context;
  EXPECT_EQ(a.result_size, b.result_size) << context;
  EXPECT_EQ(a.store_points_scanned, b.store_points_scanned) << context;
  EXPECT_EQ(a.local_result_points, b.local_result_points) << context;
  EXPECT_EQ(a.super_peers_participated, b.super_peers_participated)
      << context;
  EXPECT_EQ(a.partial, b.partial) << context;
  EXPECT_EQ(a.covered, b.covered) << context;
  EXPECT_EQ(a.retransmits, b.retransmits) << context;
  EXPECT_EQ(a.hops_gave_up, b.hops_gave_up) << context;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << context;
  if (include_ops) {
    EXPECT_TRUE(a.ops == b.ops) << context << "\n  a: " << a.ops.ToString()
                                << "\n  b: " << b.ops.ToString();
  }
}

std::vector<Variant> SixVariants() {
  std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
  variants.push_back(Variant::kPipeline);
  return variants;
}

// The tentpole property test: a network that executes a seeded churn
// plan while serving queries is bit-identical, query for query AND store
// for store, to (a) a network that interleaves the same events directly
// between queries and (b) the same replay with incremental maintenance
// replaced by full store rebuilds — across all six variants, 1/2/8
// threads, resident and paged stores, plain and
// cache+filter-set+block-skip compositions.
//
// The alignment works because a scheduled slot-q event batch is applied
// *after* the q-th query pins its epochs: query q observes membership
// after slots 0..q-1, exactly like a replay network that runs query q
// first and then applies slot q's events.
TEST(ScheduledChurn, MatchesDirectReplayAndRebuildOracle) {
  const std::vector<Variant> variants = SixVariants();
  const sim::ChurnPlan plan =
      sim::ChurnPlan::Seeded(/*num_events=*/6, /*rate=*/0.05, /*seed=*/99,
                             /*num_slots=*/4, /*num_super_peers=*/8);
  ASSERT_EQ(plan.size(), 6u);
  const std::vector<QueryTask> tasks = GenerateWorkload(4, 2, 8, 8, 17);

  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalConcurrency(threads);
    for (bool paged : {false, true}) {
      for (bool composed : {false, true}) {
        NetworkConfig base = DynamicConfig(21);
        base.measure_cpu = false;  // Virtual clocks for exact comparison.
        base.enable_cache = composed;
        if (paged) {
          base.buffer_pages = 4;
          base.page_size = 4096;
        }
        if (composed) {
          base.filter_set_size = 6;
          base.block_skip = true;
        }
        NetworkConfig rebuild_config = base;
        rebuild_config.incremental_maintenance = false;

        SkypeerNetwork scheduled(base);
        scheduled.Preprocess();
        scheduled.SetChurnPlan(plan);
        SkypeerNetwork replay(base);
        replay.Preprocess();
        SkypeerNetwork rebuild(rebuild_config);
        rebuild.Preprocess();

        for (size_t q = 0; q < tasks.size(); ++q) {
          const QueryTask& task = tasks[q];
          const Variant variant = variants[q % variants.size()];
          const std::string context =
              "threads=" + std::to_string(threads) +
              " paged=" + std::to_string(paged) +
              " composed=" + std::to_string(composed) +
              " q=" + std::to_string(q) + " " + VariantName(variant);

          const QueryResult a =
              scheduled.ExecuteQuery(task.subspace, task.initiator_sp,
                                     variant);
          const QueryResult b =
              replay.ExecuteQuery(task.subspace, task.initiator_sp, variant);
          const QueryResult c =
              rebuild.ExecuteQuery(task.subspace, task.initiator_sp,
                                   variant);

          EXPECT_EQ(StoreSignature(a.skyline), StoreSignature(b.skyline))
              << context;
          EXPECT_EQ(StoreSignature(b.skyline), StoreSignature(c.skyline))
              << context;
          // The scheduled run's in-flight queries additionally count the
          // slot's maintenance ops (charged via node timers), so its op
          // counters are only comparable once the plan is exhausted.
          const bool past_plan = static_cast<int>(q) > plan.MaxSlot();
          ExpectSameMetrics(a.metrics, b.metrics, context + " a/b",
                            /*include_ops=*/past_plan);
          ExpectSameMetrics(b.metrics, c.metrics, context + " b/c",
                            /*include_ops=*/true);

          // Mirror the slot on the replay networks after their queries.
          const auto [begin, end] = plan.SlotRange(static_cast<int>(q));
          for (size_t i = begin; i < end; ++i) {
            ASSERT_TRUE(replay.ApplyChurnEvent(plan.events[i]).ok())
                << context;
            ASSERT_TRUE(rebuild.ApplyChurnEvent(plan.events[i]).ok())
                << context;
          }

          // Stores bit-identical across all three networks after every
          // step — incremental maintenance vs full rebuild included.
          for (int sp = 0; sp < 8; ++sp) {
            const auto sig =
                StoreSignature(scheduled.super_peer(sp).MaterializeStore());
            EXPECT_EQ(sig,
                      StoreSignature(replay.super_peer(sp).MaterializeStore()))
                << context << " sp=" << sp;
            EXPECT_EQ(
                sig,
                StoreSignature(rebuild.super_peer(sp).MaterializeStore()))
                << context << " sp=" << sp;
          }
        }

        // All three applied the same events.
        EXPECT_EQ(scheduled.churn_stats().joins, replay.churn_stats().joins);
        EXPECT_EQ(scheduled.churn_stats().removals,
                  replay.churn_stats().removals);
        EXPECT_EQ(scheduled.churn_stats().replacements,
                  replay.churn_stats().replacements);
        EXPECT_EQ(scheduled.churn_stats().skipped,
                  replay.churn_stats().skipped);
        EXPECT_EQ(scheduled.churn_stats().joins +
                      scheduled.churn_stats().removals +
                      scheduled.churn_stats().replacements +
                      scheduled.churn_stats().skipped,
                  plan.size());

        // The churned network still answers exactly against ground truth
        // at its final membership.
        ExpectAllVariantsExact(&scheduled, Subspace::FromDims({0, 2, 3}));
        ExpectAllVariantsExact(&scheduled, Subspace::FullSpace(4));
      }
    }
  }
  ThreadPool::SetGlobalConcurrency(1);
}

// Fixed seed => bit-identical queries and simulated metrics while churn
// maintenance is being charged on node timers, under the counted unit
// cost model, at any thread count and in both store modes.
TEST(ScheduledChurn, DeterministicAcrossRepeatsThreadsAndStoreModes) {
  const std::vector<Variant> variants = SixVariants();
  const std::vector<QueryTask> tasks = GenerateWorkload(4, 2, 6, 8, 23);

  NetworkConfig base = DynamicConfig(29);
  base.cost_model = CostModel::Unit();
  base.churn_events = 6;
  base.churn_seed = 55;

  auto run = [&](const NetworkConfig& config) {
    SkypeerNetwork network(config);
    network.Preprocess();
    std::vector<QueryResult> results;
    for (size_t q = 0; q < tasks.size(); ++q) {
      results.push_back(network.ExecuteQuery(
          tasks[q].subspace, tasks[q].initiator_sp,
          variants[q % variants.size()]));
    }
    return results;
  };

  ThreadPool::SetGlobalConcurrency(1);
  const std::vector<QueryResult> reference = run(base);

  auto expect_same = [&](const std::vector<QueryResult>& other,
                         const std::string& label) {
    ASSERT_EQ(other.size(), reference.size()) << label;
    for (size_t q = 0; q < reference.size(); ++q) {
      const std::string context = label + " q=" + std::to_string(q);
      EXPECT_EQ(StoreSignature(other[q].skyline),
                StoreSignature(reference[q].skyline))
          << context;
      ExpectSameMetrics(other[q].metrics, reference[q].metrics, context,
                        /*include_ops=*/true);
    }
  };

  expect_same(run(base), "repeat");
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalConcurrency(threads);
    expect_same(run(base), "threads=" + std::to_string(threads));
  }
  ThreadPool::SetGlobalConcurrency(1);

  NetworkConfig paged = base;
  paged.buffer_pages = 4;
  paged.page_size = 4096;
  expect_same(run(paged), "paged");

  SetForceScalarKernels(true);
  expect_same(run(base), "forced-scalar");
  SetForceScalarKernels(false);
}

// Scheduled churn composes with crash-fault injection: events landing on
// a crashed super-peer still change membership (the overlay outlives the
// crash) but their maintenance timers are suppressed like any other
// delivery, and the whole composition stays deterministic, coverage sets
// included.
TEST(ScheduledChurn, ComposesWithCrashFaultsDeterministically) {
  NetworkConfig config = DynamicConfig(31);
  config.cost_model = CostModel::Unit();
  config.reliable = true;
  config.fault_seed = 77;
  config.crashed_sps = {5};
  config.churn_events = 5;
  config.churn_seed = 88;

  auto run = [&](int threads) {
    ThreadPool::SetGlobalConcurrency(threads);
    SkypeerNetwork network(config);
    network.Preprocess();
    std::vector<QueryResult> results;
    const std::vector<QueryTask> tasks = GenerateWorkload(4, 2, 8, 8, 41);
    for (size_t q = 0; q < tasks.size(); ++q) {
      results.push_back(network.ExecuteQuery(tasks[q].subspace,
                                             tasks[q].initiator_sp,
                                             Variant::kRTPM));
    }
    return results;
  };

  const std::vector<QueryResult> first = run(1);
  const std::vector<QueryResult> second = run(4);
  ThreadPool::SetGlobalConcurrency(1);
  ASSERT_EQ(first.size(), second.size());
  for (size_t q = 0; q < first.size(); ++q) {
    const std::string context = "q=" + std::to_string(q);
    EXPECT_EQ(StoreSignature(first[q].skyline),
              StoreSignature(second[q].skyline))
        << context;
    ExpectSameMetrics(first[q].metrics, second[q].metrics, context,
                      /*include_ops=*/true);
    // The crashed super-peer never reports in.
    for (int sp : first[q].metrics.covered) EXPECT_NE(sp, 5) << context;
  }
}

// --- incremental membership maintenance -----------------------------------

// With `verify_maintenance` every incremental removal is checked in-line
// against the full-rebuild oracle (a mismatch aborts); this drives the
// checked path through a long mixed join/leave/replace history.
TEST(Maintenance, IncrementalMatchesRebuildOracleUnderStress) {
  NetworkConfig config = DynamicConfig(14);
  config.verify_maintenance = true;
  config.block_skip = true;
  SkypeerNetwork network(config);
  network.Preprocess();

  Rng rng(99);
  for (int round = 0; round < 12; ++round) {
    const int sp = static_cast<int>(rng.UniformInt(0, 7));
    switch (round % 3) {
      case 0: {
        PointSet data = GenerateUniform(4, 20, &rng);
        ASSERT_TRUE(network.JoinPeer(sp, std::move(data)).ok());
        break;
      }
      case 1: {
        const auto& peers = network.overlay().super_peer_peers[sp];
        if (!peers.empty()) {
          const int victim =
              peers[rng.UniformInt(0, static_cast<int>(peers.size()) - 1)];
          ASSERT_TRUE(network.RemovePeer(victim).ok());
        }
        break;
      }
      default: {
        const auto& peers = network.overlay().super_peer_peers[sp];
        if (!peers.empty()) {
          const int victim =
              peers[rng.UniformInt(0, static_cast<int>(peers.size()) - 1)];
          PointSet data = GenerateUniform(4, 15, &rng);
          ASSERT_TRUE(network.ReplacePeerData(victim, std::move(data)).ok());
        }
        break;
      }
    }
    if (round % 4 == 3) {
      ExpectAllVariantsExact(&network, Subspace::FromDims({1, 3}));
    }
  }
  ExpectAllVariantsExact(&network, Subspace::FullSpace(4));
}

// Regression: removing the *last* peer of a super-peer must rebuild the
// zone-map summary through the shared install path — a stale summary
// would let --block-skip skip phantom blocks (or scan freed ones).
TEST(Maintenance, DrainedSuperPeerServesBlockSkipQueries) {
  NetworkConfig config = DynamicConfig(13);
  config.block_skip = true;
  SkypeerNetwork network(config);
  network.Preprocess();

  const std::vector<int> victims = network.overlay().super_peer_peers[2];
  ASSERT_FALSE(victims.empty());
  for (int peer : victims) {
    ASSERT_TRUE(network.RemovePeer(peer).ok());
  }
  EXPECT_EQ(network.super_peer(2).StoreSize(), 0u);
  ASSERT_TRUE(network.super_peer(2).View().summary() != nullptr);
  EXPECT_TRUE(network.super_peer(2).View().empty());

  ExpectAllVariantsExact(&network, Subspace::FromDims({0, 3}));
  ExpectAllVariantsExact(&network, Subspace::FullSpace(4));
  // A query initiated at the drained node must still work.
  const Subspace u = Subspace::FromDims({1, 2});
  QueryResult from_drained = network.ExecuteQuery(u, 2, Variant::kRTFM);
  EXPECT_EQ(SortedIds(from_drained.skyline.points),
            SortedIds(network.GroundTruthSkyline(u)));
}

}  // namespace
}  // namespace skypeer
