// The beyond-RAM tentpole guarantee: serving super-peer stores through
// the paged blocked-SoA storage subsystem (`--buffer-pages`) is
// invisible to everything the simulation reports. Skylines, transfer
// volume, messages, scan counts, op counts — including the logical
// `page_reads`/`page_bytes`, which are charged identically in both
// modes — and simulated times are bit-identical between the in-memory
// and the paged store, for all five variants plus the pipeline, at 1, 2
// and 8 threads, with forced-scalar and dispatched SIMD kernels,
// composed with --speculative-rt, the trace cache, --filter-set and fault
// injection. Only the out-of-band physical pool counters may
// differ.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/persistence.h"

namespace skypeer {
namespace {

NetworkConfig BaseConfig() {
  NetworkConfig config;
  config.num_peers = 40;
  config.num_super_peers = 8;
  config.points_per_peer = 30;
  config.dims = 4;
  config.seed = 7;
  config.measure_cpu = false;  // Virtual clocks for exact comparison.
  return config;
}

/// The same network, stores spilled through a deliberately tiny pool: 4
/// frames of 4 KiB against 8 stores of several pages each, so scans
/// continuously fault, evict and prefetch.
NetworkConfig Paged(NetworkConfig config) {
  config.buffer_pages = 4;
  config.page_size = 4096;
  return config;
}

std::vector<std::vector<double>> Signature(const ResultList& list) {
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

/// Every simulated quantity, including the op counts (page charges among
/// them) and the reliability fields.
void ExpectMetricsIdentical(const QueryMetrics& a, const QueryMetrics& b,
                            const std::string& context) {
  EXPECT_EQ(a.computational_time_s, b.computational_time_s) << context;
  EXPECT_EQ(a.total_time_s, b.total_time_s) << context;
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << context;
  EXPECT_EQ(a.messages, b.messages) << context;
  EXPECT_EQ(a.result_size, b.result_size) << context;
  EXPECT_EQ(a.store_points_scanned, b.store_points_scanned) << context;
  EXPECT_EQ(a.local_result_points, b.local_result_points) << context;
  EXPECT_EQ(a.super_peers_participated, b.super_peers_participated) << context;
  EXPECT_TRUE(a.ops == b.ops)
      << context << "\n  in-memory: " << b.ops.ToString()
      << "\n  paged:     " << a.ops.ToString();
  EXPECT_EQ(a.partial, b.partial) << context;
  EXPECT_EQ(a.covered, b.covered) << context;
  EXPECT_EQ(a.retransmits, b.retransmits) << context;
  EXPECT_EQ(a.hops_gave_up, b.hops_gave_up) << context;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << context;
}

TEST(PagedIdentity, MatchesInMemoryForAllVariantsThreadsKernelsCompositions) {
  const std::vector<QueryTask> tasks =
      GenerateWorkload(4, 2, 3, BaseConfig().num_super_peers, 101);
  std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
  variants.push_back(Variant::kPipeline);

  std::vector<std::pair<std::string, NetworkConfig>> compositions;
  {
    NetworkConfig plain = BaseConfig();
    plain.enable_cache = false;
    compositions.emplace_back("plain", plain);
  }
  {
    NetworkConfig speculative = BaseConfig();
    speculative.enable_cache = false;
    speculative.speculative_rt = true;
    compositions.emplace_back("speculative", speculative);
  }
  {
    NetworkConfig cached = BaseConfig();
    cached.enable_cache = true;
    compositions.emplace_back("cached", cached);
  }
  {
    NetworkConfig filtered = BaseConfig();
    filtered.filter_set_size = 8;
    compositions.emplace_back("filtered", filtered);
  }
  {
    NetworkConfig skipping = BaseConfig();
    skipping.block_skip = true;
    compositions.emplace_back("block-skip", skipping);
  }
  {
    // Everything at once, under injected faults.
    NetworkConfig faulted = BaseConfig();
    faulted.speculative_rt = true;
    faulted.enable_cache = true;
    faulted.filter_set_size = 6;
    faulted.block_skip = true;
    faulted.reliable = true;
    faulted.drop_prob = 0.2;
    faulted.delay_jitter = 0.05;
    faulted.fault_seed = 21;
    faulted.crashed_sps = {5};
    faulted.max_retries = 2;
    compositions.emplace_back("faulted", faulted);
  }

  struct Reference {
    std::vector<std::vector<double>> skyline;
    QueryMetrics metrics;
  };

  for (const auto& [name, config] : compositions) {
    // In-memory sequential scalar reference.
    SetForceScalarKernels(true);
    ThreadPool::SetGlobalConcurrency(1);
    std::vector<std::vector<Reference>> references;
    {
      SkypeerNetwork in_memory(config);
      in_memory.Preprocess();
      EXPECT_EQ(in_memory.buffer_manager(), nullptr);
      for (Variant variant : variants) {
        std::vector<Reference> per_task;
        for (const QueryTask& task : tasks) {
          const QueryResult result =
              in_memory.ExecuteQuery(task.subspace, task.initiator_sp, variant);
          per_task.push_back({Signature(result.skyline), result.metrics});
        }
        references.push_back(std::move(per_task));
      }
    }

    for (const bool force_scalar : {true, false}) {
      SetForceScalarKernels(force_scalar);
      for (int threads : {1, 2, 8}) {
        ThreadPool::SetGlobalConcurrency(threads);
        SkypeerNetwork paged(Paged(config));
        paged.Preprocess();
        ASSERT_NE(paged.buffer_manager(), nullptr);
        for (size_t v = 0; v < variants.size(); ++v) {
          for (size_t t = 0; t < tasks.size(); ++t) {
            const QueryResult result = paged.ExecuteQuery(
                tasks[t].subspace, tasks[t].initiator_sp, variants[v]);
            const std::string context =
                name + " " + VariantName(variants[v]) + " task " +
                std::to_string(t) + " threads " + std::to_string(threads) +
                (force_scalar ? " scalar" : " simd");
            EXPECT_EQ(Signature(result.skyline), references[v][t].skyline)
                << context;
            ExpectMetricsIdentical(result.metrics, references[v][t].metrics,
                                   context);
          }
        }
        // The pool physically paged: out-of-band evidence the run did
        // not silently fall back to resident stores.
        EXPECT_GT(paged.buffer_manager()->stats().misses, 0u) << name;
      }
    }
  }
  SetForceScalarKernels(false);
  ThreadPool::SetGlobalConcurrency(1);
}

TEST(PagedIdentity, LogicalPageChargesAreNonZeroAndEqualInBothModes) {
  // The charging design in one assertion: both modes report the same
  // positive page_reads/page_bytes, and the buffer pool's physical read
  // count is unrelated to them (a tiny pool re-reads pages the logical
  // model charges once).
  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork in_memory(BaseConfig());
  in_memory.Preprocess();
  SkypeerNetwork paged(Paged(BaseConfig()));
  paged.Preprocess();

  const Subspace u = Subspace::FromDims({0, 2});
  const QueryResult mem = in_memory.ExecuteQuery(u, 0, Variant::kRTPM);
  const QueryResult pgd = paged.ExecuteQuery(u, 0, Variant::kRTPM);
  EXPECT_GT(mem.metrics.ops.page_reads, 0u);
  EXPECT_EQ(mem.metrics.ops.page_reads, pgd.metrics.ops.page_reads);
  EXPECT_EQ(mem.metrics.ops.page_bytes, pgd.metrics.ops.page_bytes);
  EXPECT_EQ(mem.metrics.ops.page_bytes,
            mem.metrics.ops.page_reads * 4096u);
}

// --- churn on a paged network ------------------------------------------------

NetworkConfig DynamicPaged(uint64_t seed) {
  NetworkConfig config = Paged(BaseConfig());
  config.seed = seed;
  config.retain_peer_data = true;
  config.dynamic_membership = true;
  return config;
}

TEST(PagedChurn, JoinsAndRemovalsRebuildPagedStoresExactly) {
  // Regression for store replacement under paging: every join/removal
  // rebuilds the super-peer's `PagedStore` with fresh page ids and drops
  // the old pages; queries after each step must match the in-memory
  // network operation for operation.
  ThreadPool::SetGlobalConcurrency(1);
  NetworkConfig mem_config = DynamicPaged(31);
  mem_config.buffer_pages = 0;
  SkypeerNetwork in_memory(mem_config);
  in_memory.Preprocess();
  SkypeerNetwork paged(DynamicPaged(31));
  paged.Preprocess();

  const uint64_t pages_after_build =
      paged.buffer_manager()->stats().pages_written;
  EXPECT_GT(pages_after_build, 0u);

  Rng data_rng_a(55);
  Rng data_rng_b(55);
  Rng plan(77);
  std::vector<int> removable;
  for (int peer = 0; peer < 40; ++peer) {
    removable.push_back(peer);
  }
  for (int round = 0; round < 8; ++round) {
    if (plan.Uniform() < 0.5 || removable.empty()) {
      const int sp = static_cast<int>(plan.UniformInt(0, 7));
      const int n = 1 + round % 25;
      int id_a = -1;
      int id_b = -1;
      ASSERT_TRUE(
          in_memory.JoinPeer(sp, GenerateUniform(4, n, &data_rng_a), &id_a)
              .ok());
      ASSERT_TRUE(
          paged.JoinPeer(sp, GenerateUniform(4, n, &data_rng_b), &id_b).ok());
      ASSERT_EQ(id_a, id_b);
      removable.push_back(id_a);
    } else {
      const size_t victim = plan.UniformInt(0, removable.size() - 1);
      ASSERT_TRUE(in_memory.RemovePeer(removable[victim]).ok());
      ASSERT_TRUE(paged.RemovePeer(removable[victim]).ok());
      removable.erase(removable.begin() + victim);
    }
    for (Variant variant : {Variant::kFTFM, Variant::kRTPM}) {
      const Subspace u = Subspace::FromDims({1, 3});
      const QueryResult a = in_memory.ExecuteQuery(u, 0, variant);
      const QueryResult b = paged.ExecuteQuery(u, 0, variant);
      const std::string context =
          "round " + std::to_string(round) + " " + VariantName(variant);
      EXPECT_EQ(Signature(a.skyline), Signature(b.skyline)) << context;
      ExpectMetricsIdentical(b.metrics, a.metrics, context);
    }
    // The rebuilt stores match content-wise, and the rebuilds actually
    // spilled new pages.
    for (int sp = 0; sp < paged.num_super_peers(); ++sp) {
      EXPECT_EQ(Signature(paged.super_peer(sp).MaterializeStore()),
                Signature(in_memory.super_peer(sp).store()))
          << "round " << round << " store " << sp;
    }
  }
  EXPECT_GT(paged.buffer_manager()->stats().pages_written, pages_after_build);
}

TEST(PagedChurn, DrainedSuperPeerHoldsAnEmptyPagedStore) {
  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork paged(DynamicPaged(32));
  paged.Preprocess();
  const std::vector<int> victims = paged.overlay().super_peer_peers[2];
  ASSERT_FALSE(victims.empty());
  for (int peer : victims) {
    ASSERT_TRUE(paged.RemovePeer(peer).ok());
  }
  EXPECT_EQ(paged.super_peer(2).StoreSize(), 0u);
  EXPECT_TRUE(paged.super_peer(2).MaterializeStore().empty());
  // The drained super-peer still answers and initiates exactly.
  NetworkConfig mem_config = DynamicPaged(32);
  mem_config.buffer_pages = 0;
  SkypeerNetwork in_memory(mem_config);
  in_memory.Preprocess();
  for (int peer : victims) {
    ASSERT_TRUE(in_memory.RemovePeer(peer).ok());
  }
  const Subspace u = Subspace::FromDims({0, 3});
  const QueryResult a = in_memory.ExecuteQuery(u, 2, Variant::kRTPM);
  const QueryResult b = paged.ExecuteQuery(u, 2, Variant::kRTPM);
  EXPECT_EQ(Signature(a.skyline), Signature(b.skyline));
  ExpectMetricsIdentical(b.metrics, a.metrics, "drained initiator");
}

TEST(PagedChurn, ScheduledChurnPlanMatchesInMemoryQueryForQuery) {
  // Scheduled churn under fire: the same seeded churn plan executes on a
  // paged and an in-memory network while queries are in flight. Pinned
  // epochs hold retired pages alive through each install, and every
  // query — including the ones whose slot applies joins/removals/
  // replacements mid-simulation — must stay bit-identical across store
  // modes, maintenance op charges included.
  for (int threads : {1, 8}) {
    ThreadPool::SetGlobalConcurrency(threads);
    NetworkConfig mem_config = DynamicPaged(33);
    mem_config.buffer_pages = 0;
    mem_config.churn_events = 6;
    mem_config.churn_seed = 5;
    NetworkConfig paged_config = DynamicPaged(33);
    paged_config.churn_events = 6;
    paged_config.churn_seed = 5;

    SkypeerNetwork in_memory(mem_config);
    in_memory.Preprocess();
    SkypeerNetwork paged(paged_config);
    paged.Preprocess();
    ASSERT_EQ(in_memory.churn_plan().size(), 6u);

    std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
    variants.push_back(Variant::kPipeline);
    const std::vector<QueryTask> tasks = GenerateWorkload(4, 2, 8, 8, 61);
    for (size_t q = 0; q < tasks.size(); ++q) {
      const Variant variant = variants[q % variants.size()];
      const std::string context = "threads=" + std::to_string(threads) +
                                  " q=" + std::to_string(q) + " " +
                                  VariantName(variant);
      const QueryResult a = in_memory.ExecuteQuery(
          tasks[q].subspace, tasks[q].initiator_sp, variant);
      const QueryResult b =
          paged.ExecuteQuery(tasks[q].subspace, tasks[q].initiator_sp,
                             variant);
      EXPECT_EQ(Signature(a.skyline), Signature(b.skyline)) << context;
      ExpectMetricsIdentical(b.metrics, a.metrics, context);
    }
    // Both executed the identical schedule, and the post-churn stores
    // still match row for row.
    EXPECT_EQ(paged.churn_stats().joins, in_memory.churn_stats().joins);
    EXPECT_EQ(paged.churn_stats().removals, in_memory.churn_stats().removals);
    EXPECT_EQ(paged.churn_stats().replacements,
              in_memory.churn_stats().replacements);
    EXPECT_TRUE(paged.churn_stats().maintenance_ops ==
                in_memory.churn_stats().maintenance_ops);
    for (int sp = 0; sp < paged.num_super_peers(); ++sp) {
      EXPECT_EQ(Signature(paged.super_peer(sp).MaterializeStore()),
                Signature(in_memory.super_peer(sp).store()))
          << "store " << sp;
    }
  }
  ThreadPool::SetGlobalConcurrency(1);
}

// --- workloads, clones, persistence ------------------------------------------

TEST(PagedWorkloads, ParallelAggregatesMatchInMemorySequential) {
  const std::vector<QueryTask> tasks =
      GenerateWorkload(4, 3, 8, BaseConfig().num_super_peers, 103);

  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork in_memory(BaseConfig());
  in_memory.Preprocess();
  ThreadPool::SetGlobalConcurrency(4);
  SkypeerNetwork paged(Paged(BaseConfig()));
  paged.Preprocess();
  EXPECT_TRUE(paged.SupportsParallelWorkloads());

  for (Variant variant : kAllVariants) {
    ThreadPool::SetGlobalConcurrency(1);
    const AggregateMetrics seq = RunWorkload(&in_memory, tasks, variant);
    ThreadPool::SetGlobalConcurrency(4);
    const AggregateMetrics par = RunWorkload(&paged, tasks, variant);
    EXPECT_EQ(seq.queries, par.queries) << VariantName(variant);
    EXPECT_EQ(seq.comp_s.samples(), par.comp_s.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.total_s.samples(), par.total_s.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.kb.samples(), par.kb.samples()) << VariantName(variant);
    EXPECT_EQ(seq.messages.samples(), par.messages.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.result.samples(), par.result.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.scanned.samples(), par.scanned.samples())
        << VariantName(variant);
    EXPECT_TRUE(seq.total_ops == par.total_ops) << VariantName(variant);
    // Physical counters: zero without a pool, busy with one.
    EXPECT_EQ(seq.buffer_hits + seq.buffer_misses, 0u);
    EXPECT_GT(par.buffer_misses, 0u);
  }
  ThreadPool::SetGlobalConcurrency(1);
}

TEST(PagedWorkloads, CloneForQueriesBuildsAPrivatePool) {
  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork paged(Paged(BaseConfig()));
  paged.Preprocess();
  const auto clone = paged.CloneForQueries();
  ASSERT_NE(clone->buffer_manager(), nullptr);
  EXPECT_NE(clone->buffer_manager(), paged.buffer_manager());

  const Subspace u = Subspace::FromDims({0, 2});
  const QueryResult original = paged.ExecuteQuery(u, 3, Variant::kRTPM);
  const QueryResult replica = clone->ExecuteQuery(u, 3, Variant::kRTPM);
  EXPECT_EQ(Signature(original.skyline), Signature(replica.skyline));
  ExpectMetricsIdentical(replica.metrics, original.metrics, "paged clone");
}

TEST(PagedWorkloads, ResizingTheGlobalPoolKeepsPrefetchWorking) {
  // A paged network built with `threads == 0` prefetches on the global
  // pool. Resizing that pool frees the one the network was built with, so
  // the buffer manager must look the pool up again on every prefetch
  // instead of keeping the freed one.
  // Stores several pages long, so scans read ahead.
  NetworkConfig config = BaseConfig();
  config.points_per_peer = 200;
  config.dims = 6;
  const std::vector<QueryTask> tasks =
      GenerateWorkload(config.dims, 4, 4, config.num_super_peers, 107);
  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork in_memory(config);
  in_memory.Preprocess();
  ThreadPool::SetGlobalConcurrency(4);
  SkypeerNetwork paged(Paged(config));
  paged.Preprocess();

  for (int threads : {2, 1, 3}) {
    ThreadPool::SetGlobalConcurrency(threads);
    for (const QueryTask& task : tasks) {
      for (Variant variant : {Variant::kNaive, Variant::kRTPM}) {
        const QueryResult want = in_memory.ExecuteQuery(
            task.subspace, task.initiator_sp, variant);
        const QueryResult got =
            paged.ExecuteQuery(task.subspace, task.initiator_sp, variant);
        const std::string context = "threads=" + std::to_string(threads) +
                                    " u=" + task.subspace.ToString() + " " +
                                    VariantName(variant);
        EXPECT_EQ(Signature(got.skyline), Signature(want.skyline))
            << context;
        ExpectMetricsIdentical(got.metrics, want.metrics, context);
      }
    }
  }
  EXPECT_GT(paged.buffer_manager()->stats().prefetches_issued, 0u);
  ThreadPool::SetGlobalConcurrency(1);
}

TEST(PagedWorkloads, PersistenceRoundTripsThroughMaterializedStores) {
  // SaveStores materializes paged stores; a snapshot taken from a paged
  // network restores into an in-memory network (and vice versa) with
  // bit-identical answers.
  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork paged(Paged(BaseConfig()));
  paged.Preprocess();
  const std::string path = ::testing::TempDir() + "/paged_stores.bin";
  ASSERT_TRUE(SaveStores(paged, path).ok());

  SkypeerNetwork in_memory(BaseConfig());
  ASSERT_TRUE(LoadStores(&in_memory, path).ok());
  SkypeerNetwork reloaded_paged(Paged(BaseConfig()));
  ASSERT_TRUE(LoadStores(&reloaded_paged, path).ok());

  const Subspace u = Subspace::FromDims({1, 2});
  const QueryResult direct = paged.ExecuteQuery(u, 0, Variant::kFTPM);
  const QueryResult via_memory = in_memory.ExecuteQuery(u, 0, Variant::kFTPM);
  const QueryResult via_paged =
      reloaded_paged.ExecuteQuery(u, 0, Variant::kFTPM);
  EXPECT_EQ(Signature(direct.skyline), Signature(via_memory.skyline));
  EXPECT_EQ(Signature(direct.skyline), Signature(via_paged.skyline));
  ExpectMetricsIdentical(via_memory.metrics, direct.metrics, "snapshot mem");
  ExpectMetricsIdentical(via_paged.metrics, direct.metrics, "snapshot paged");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skypeer
