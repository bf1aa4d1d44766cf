// Tests of the deterministic ops-count cost model: OpCounts accounting,
// CostModel profiles, MetricSeries percentile edge ranks, and the
// engine-level guarantee that under counted charging every QueryMetrics
// field — including both time metrics — is bit-identical across runs,
// thread counts, kernel dispatch and feature compositions.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/engine/cost_model.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/metrics.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/sim/simulator.h"

namespace skypeer {
namespace {

// --- OpCounts ---------------------------------------------------------------

TEST(OpCounts, AccumulatesFieldwise) {
  OpCounts a;
  a.dominance_tests = 3;
  a.scan_steps = 7;
  OpCounts b;
  b.dominance_tests = 10;
  b.merge_pulls = 2;
  b.sort_steps = 4;
  b.bytes_serialized = 100;
  a += b;
  EXPECT_EQ(a.dominance_tests, 13u);
  EXPECT_EQ(a.scan_steps, 7u);
  EXPECT_EQ(a.merge_pulls, 2u);
  EXPECT_EQ(a.sort_steps, 4u);
  EXPECT_EQ(a.bytes_serialized, 100u);
  EXPECT_EQ(a.total(), 13u + 7u + 2u + 4u + 100u);

  const OpCounts c = a + OpCounts{};
  EXPECT_EQ(c, a);
  EXPECT_NE(c, b);
}

TEST(OpCounts, SortCostIsNCeilLogN) {
  EXPECT_EQ(SortCost(0), 0u);
  EXPECT_EQ(SortCost(1), 0u);
  EXPECT_EQ(SortCost(2), 2u);   // 2 * ceil(log2 2) = 2 * 1
  EXPECT_EQ(SortCost(3), 6u);   // 3 * 2
  EXPECT_EQ(SortCost(4), 8u);   // 4 * 2
  EXPECT_EQ(SortCost(5), 15u);  // 5 * 3
  EXPECT_EQ(SortCost(8), 24u);  // 8 * 3
  EXPECT_EQ(SortCost(9), 36u);  // 9 * 4
  EXPECT_EQ(SortCost(1024), 1024u * 10u);
  EXPECT_EQ(SortCost(1025), 1025u * 11u);
}

// --- CostModel --------------------------------------------------------------

TEST(CostModel, UnitSecondsEqualTotalOps) {
  OpCounts ops;
  ops.dominance_tests = 11;
  ops.scan_steps = 17;
  ops.merge_pulls = 19;
  ops.sort_steps = 23;
  ops.bytes_serialized = 29;
  const CostModel unit = CostModel::Unit();
  EXPECT_TRUE(unit.counted());
  EXPECT_DOUBLE_EQ(unit.Seconds(ops), static_cast<double>(ops.total()));
}

TEST(CostModel, CalibratedSecondsIsTheDotProduct) {
  const CostModel model = CostModel::Calibrated();
  OpCounts ops;
  ops.dominance_tests = 1000;
  ops.bytes_serialized = 4096;
  const double expected = 1000 * model.dominance_test_s +
                          4096 * model.byte_s;
  EXPECT_DOUBLE_EQ(model.Seconds(ops), expected);
  EXPECT_EQ(CostModel::Measured().counted(), false);
  EXPECT_DOUBLE_EQ(CostModel::Measured().Seconds(OpCounts{}), 0.0);
}

TEST(CostModel, ProfileRoundTripsExactly) {
  CostModel model = CostModel::Calibrated();
  model.dominance_test_s = 3.25e-9;
  model.scan_step_s = 1.0e-12;
  model.merge_pull_s = 6.5e-8;
  model.sort_step_s = 9.125e-9;
  model.byte_s = 2.0e-10;

  CostModel loaded = CostModel::Calibrated();
  ASSERT_TRUE(loaded.LoadProfileString(model.ToProfileString()));
  EXPECT_EQ(loaded.dominance_test_s, model.dominance_test_s);
  EXPECT_EQ(loaded.scan_step_s, model.scan_step_s);
  EXPECT_EQ(loaded.merge_pull_s, model.merge_pull_s);
  EXPECT_EQ(loaded.sort_step_s, model.sort_step_s);
  EXPECT_EQ(loaded.byte_s, model.byte_s);
}

TEST(CostModel, ProfileIgnoresCommentsAndRejectsGarbage) {
  CostModel model = CostModel::Calibrated();
  EXPECT_TRUE(model.LoadProfileString(
      "# a comment\n\nunknown_key=1.0\ndominance_test_s=5e-9\n"));
  EXPECT_EQ(model.dominance_test_s, 5e-9);
  EXPECT_FALSE(model.LoadProfileString("dominance_test_s=not-a-number\n"));
  EXPECT_FALSE(model.LoadProfileString("no equals sign here\n"));
  EXPECT_FALSE(model.LoadProfileString("dominance_test_s=nan\n"));
  EXPECT_FALSE(model.LoadProfileString("byte_s=inf\n"));
}

TEST(CostModel, ModeNamesParseAndPrint) {
  CostModelMode mode;
  ASSERT_TRUE(ParseCostModelMode("measured", &mode));
  EXPECT_EQ(mode, CostModelMode::kMeasured);
  ASSERT_TRUE(ParseCostModelMode("calibrated", &mode));
  EXPECT_EQ(mode, CostModelMode::kCalibrated);
  ASSERT_TRUE(ParseCostModelMode("unit", &mode));
  EXPECT_EQ(mode, CostModelMode::kUnit);
  EXPECT_FALSE(ParseCostModelMode("bogus", &mode));
  EXPECT_STREQ(CostModelModeName(CostModelMode::kMeasured), "measured");
  EXPECT_STREQ(CostModelModeName(CostModelMode::kCalibrated), "calibrated");
  EXPECT_STREQ(CostModelModeName(CostModelMode::kUnit), "unit");
}

// --- MetricSeries::Percentile edge ranks ------------------------------------

TEST(MetricSeries, PercentileOfSingleSampleIsThatSample) {
  MetricSeries series;
  series.Add(42.0);
  EXPECT_EQ(series.Percentile(0), 42.0);
  EXPECT_EQ(series.Percentile(50), 42.0);
  EXPECT_EQ(series.Percentile(100), 42.0);
}

TEST(MetricSeries, PercentileNearestRankEdges) {
  MetricSeries series;
  // Unsorted on purpose; Percentile sorts internally.
  series.Add(3.0);
  series.Add(1.0);
  series.Add(4.0);
  series.Add(2.0);
  EXPECT_EQ(series.Percentile(0), 1.0);    // rank clamps up to 1
  EXPECT_EQ(series.Percentile(25), 1.0);   // ceil(0.25 * 4) = 1
  EXPECT_EQ(series.Percentile(50), 2.0);   // ceil(0.50 * 4) = 2
  EXPECT_EQ(series.Percentile(75), 3.0);
  EXPECT_EQ(series.Percentile(100), 4.0);  // maximum
  EXPECT_EQ(series.Percentile(51), 3.0);   // ceil(0.51 * 4) = 3
}

TEST(MetricSeries, PercentileOfEmptySeriesIsZero) {
  MetricSeries series;
  EXPECT_EQ(series.Percentile(0), 0.0);
  EXPECT_EQ(series.Percentile(100), 0.0);
}

// --- counted-charging determinism -------------------------------------------

std::vector<Variant> AllSixVariants() {
  std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
  variants.push_back(Variant::kPipeline);
  return variants;
}

/// Full content signature of a result list: (id, f, coords) per entry.
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

void ExpectOpsEqual(const OpCounts& a, const OpCounts& b,
                    const std::string& context) {
  EXPECT_EQ(a.dominance_tests, b.dominance_tests) << context;
  EXPECT_EQ(a.scan_steps, b.scan_steps) << context;
  EXPECT_EQ(a.merge_pulls, b.merge_pulls) << context;
  EXPECT_EQ(a.sort_steps, b.sort_steps) << context;
  EXPECT_EQ(a.bytes_serialized, b.bytes_serialized) << context;
}

/// Bit-exact comparison of every QueryMetrics field; the time metrics use
/// EXPECT_EQ on the doubles deliberately — counted charging promises bit
/// identity, not approximate equality.
void ExpectMetricsBitIdentical(const QueryMetrics& a, const QueryMetrics& b,
                               const std::string& context) {
  EXPECT_EQ(a.computational_time_s, b.computational_time_s) << context;
  EXPECT_EQ(a.total_time_s, b.total_time_s) << context;
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << context;
  EXPECT_EQ(a.messages, b.messages) << context;
  EXPECT_EQ(a.result_size, b.result_size) << context;
  EXPECT_EQ(a.store_points_scanned, b.store_points_scanned) << context;
  EXPECT_EQ(a.local_result_points, b.local_result_points) << context;
  EXPECT_EQ(a.super_peers_participated, b.super_peers_participated) << context;
  EXPECT_EQ(a.partial, b.partial) << context;
  EXPECT_EQ(a.super_peers_reached, b.super_peers_reached) << context;
  EXPECT_EQ(a.retransmits, b.retransmits) << context;
  EXPECT_EQ(a.covered, b.covered) << context;
  ExpectOpsEqual(a.ops, b.ops, context);
}

struct RunRecord {
  std::vector<std::vector<double>> skyline;
  QueryMetrics metrics;
};

NetworkConfig CountedConfig() {
  NetworkConfig config;
  config.num_peers = 40;
  config.num_super_peers = 8;
  config.points_per_peer = 30;
  config.dims = 4;
  config.seed = 7;
  // measure_cpu stays on: calibrated charging must be deterministic even
  // though the host clock is running.
  config.cost_model = CostModel::Calibrated();
  return config;
}

std::vector<QueryTask> CountedTasks(const NetworkConfig& config) {
  return GenerateWorkload(config.dims, 2, 5, config.num_super_peers, 42);
}

/// Builds, preprocesses and queries one network; returns per-(variant,
/// task) records plus the preprocessing stats.
std::vector<RunRecord> RunAllVariants(const NetworkConfig& config,
                                      const std::vector<QueryTask>& tasks,
                                      PreprocessStats* stats_out = nullptr) {
  SkypeerNetwork network(config);
  const PreprocessStats stats = network.Preprocess();
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  std::vector<RunRecord> records;
  for (Variant variant : AllSixVariants()) {
    for (const QueryTask& task : tasks) {
      const QueryResult result =
          network.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      records.push_back({Signature(result.skyline), result.metrics});
    }
  }
  return records;
}

void ExpectRunsBitIdentical(const std::vector<RunRecord>& a,
                            const std::vector<RunRecord>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  const std::vector<Variant> variants = AllSixVariants();
  const size_t per_variant = a.size() / variants.size();
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string context = label + " " +
                                VariantName(variants[i / per_variant]) +
                                " task " + std::to_string(i % per_variant);
    EXPECT_EQ(a[i].skyline, b[i].skyline) << context;
    ExpectMetricsBitIdentical(a[i].metrics, b[i].metrics, context);
  }
}

TEST(CountedDeterminism, RepeatedRunsAreBitIdentical) {
  const NetworkConfig config = CountedConfig();
  const std::vector<QueryTask> tasks = CountedTasks(config);
  ThreadPool::SetGlobalConcurrency(1);
  const std::vector<RunRecord> first = RunAllVariants(config, tasks);
  const std::vector<RunRecord> second = RunAllVariants(config, tasks);
  ExpectRunsBitIdentical(first, second, "repeat");
}

TEST(CountedDeterminism, TimesAreThreadCountInvariant) {
  const NetworkConfig config = CountedConfig();
  const std::vector<QueryTask> tasks = CountedTasks(config);

  ThreadPool::SetGlobalConcurrency(1);
  PreprocessStats stats1;
  const std::vector<RunRecord> reference =
      RunAllVariants(config, tasks, &stats1);

  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalConcurrency(threads);
    PreprocessStats stats;
    const std::vector<RunRecord> run = RunAllVariants(config, tasks, &stats);
    ExpectRunsBitIdentical(reference, run,
                           "threads=" + std::to_string(threads));
    // Preprocessing CPU charges are counted too.
    EXPECT_EQ(stats.peer_cpu_s, stats1.peer_cpu_s) << threads;
    EXPECT_EQ(stats.super_peer_cpu_s, stats1.super_peer_cpu_s) << threads;
    ExpectOpsEqual(stats.peer_ops, stats1.peer_ops, "peer ops");
    ExpectOpsEqual(stats.super_peer_ops, stats1.super_peer_ops, "sp ops");
  }
  ThreadPool::SetGlobalConcurrency(1);
}

TEST(CountedDeterminism, TimesAreKernelDispatchInvariant) {
  const NetworkConfig config = CountedConfig();
  const std::vector<QueryTask> tasks = CountedTasks(config);
  ThreadPool::SetGlobalConcurrency(1);

  SetForceScalarKernels(false);
  const std::vector<RunRecord> simd = RunAllVariants(config, tasks);
  SetForceScalarKernels(true);
  const std::vector<RunRecord> scalar = RunAllVariants(config, tasks);
  SetForceScalarKernels(false);
  ExpectRunsBitIdentical(simd, scalar, "scalar-vs-simd");
}

TEST(CountedDeterminism, FeatureCompositionsAreDeterministic) {
  struct Composition {
    const char* name;
    void (*apply)(NetworkConfig*);
  };
  const Composition compositions[] = {
      {"speculative-rt",
       [](NetworkConfig* c) { c->speculative_rt = true; }},
      {"uncached", [](NetworkConfig* c) { c->enable_cache = false; }},
      {"faulted",
       [](NetworkConfig* c) {
         c->reliable = true;
         c->drop_prob = 0.05;
         c->fault_seed = 99;
       }},
  };
  for (const Composition& composition : compositions) {
    NetworkConfig config = CountedConfig();
    composition.apply(&config);
    const std::vector<QueryTask> tasks = CountedTasks(config);

    ThreadPool::SetGlobalConcurrency(1);
    const std::vector<RunRecord> first = RunAllVariants(config, tasks);
    const std::vector<RunRecord> second = RunAllVariants(config, tasks);
    ExpectRunsBitIdentical(first, second,
                           std::string(composition.name) + " repeat");

    ThreadPool::SetGlobalConcurrency(4);
    const std::vector<RunRecord> threaded = RunAllVariants(config, tasks);
    ThreadPool::SetGlobalConcurrency(1);
    ExpectRunsBitIdentical(first, threaded,
                           std::string(composition.name) + " threads=4");
  }
}

TEST(CountedDeterminism, ComputeRunMatchesAnInfiniteBandwidthTwin) {
  // Independent oracle for a query's compute run (the second protocol
  // run, on infinite bandwidth with zero latency): twin B is the same
  // network built with such links, so its configured-links run *is* that
  // computation, executed from scratch. Fault-free, A's computational
  // time must equal B's total time, and the per-node counters (which
  // both report from that computation) must agree. `ops` reports the
  // configured-links run; it matches B's only for the sequential
  // variants — under naive/FT*M the reply arrival order, and with it the
  // merge work, follows link speed.
  struct Composition {
    const char* name;
    void (*apply)(NetworkConfig*);
  };
  const Composition compositions[] = {
      {"plain", [](NetworkConfig*) {}},
      {"filter", [](NetworkConfig* c) { c->filter_set_size = 4; }},
      {"block-skip", [](NetworkConfig* c) { c->block_skip = true; }},
      {"paged", [](NetworkConfig* c) { c->buffer_pages = 4; }},
      {"churn",
       [](NetworkConfig* c) {
         c->dynamic_membership = true;
         c->churn_events = 8;
       }},
  };
  for (const Composition& composition : compositions) {
    for (int threads : {1, 4}) {
      NetworkConfig config_a = CountedConfig();
      composition.apply(&config_a);
      config_a.threads = threads;
      NetworkConfig config_b = config_a;
      config_b.bandwidth = sim::kInfiniteBandwidth;
      config_b.latency = 0.0;
      const std::vector<QueryTask> tasks = CountedTasks(config_a);

      SkypeerNetwork a(config_a);
      SkypeerNetwork b(config_b);
      a.Preprocess();
      b.Preprocess();
      for (Variant variant : AllSixVariants()) {
        for (size_t t = 0; t < tasks.size(); ++t) {
          const std::string context =
              std::string(composition.name) +
              " threads=" + std::to_string(threads) + " " +
              VariantName(variant) + " task " + std::to_string(t);
          const QueryResult ra = a.ExecuteQuery(
              tasks[t].subspace, tasks[t].initiator_sp, variant);
          const QueryResult rb = b.ExecuteQuery(
              tasks[t].subspace, tasks[t].initiator_sp, variant);
          EXPECT_EQ(Signature(ra.skyline), Signature(rb.skyline)) << context;
          EXPECT_EQ(ra.metrics.computational_time_s, rb.metrics.total_time_s)
              << context;
          EXPECT_EQ(ra.metrics.store_points_scanned,
                    rb.metrics.store_points_scanned)
              << context;
          EXPECT_EQ(ra.metrics.local_result_points,
                    rb.metrics.local_result_points)
              << context;
          if (RefinesThresholdOnPath(variant)) {
            ExpectOpsEqual(ra.metrics.ops, rb.metrics.ops, context);
          }
        }
      }
    }
  }
}

TEST(CountedDeterminism, UnitModeExposesOpCountsAsSeconds) {
  NetworkConfig config = CountedConfig();
  config.cost_model = CostModel::Unit();
  const std::vector<QueryTask> tasks = CountedTasks(config);
  ThreadPool::SetGlobalConcurrency(1);

  SkypeerNetwork network(config);
  network.Preprocess();
  const QueryResult result = network.ExecuteQuery(
      tasks[0].subspace, tasks[0].initiator_sp, Variant::kRTPM);
  // Under the unit model every counted op charges one virtual second, so
  // the computational time — the critical path of CPU charges through
  // the reply tree — is a whole number of seconds, positive, and at most
  // the network-wide op total (the critical path cannot exceed the sum
  // of all nodes' work).
  EXPECT_GT(result.metrics.ops.total(), 0u);
  EXPECT_GT(result.metrics.computational_time_s, 0.0);
  EXPECT_EQ(result.metrics.computational_time_s,
            std::floor(result.metrics.computational_time_s));
  EXPECT_LE(result.metrics.computational_time_s,
            static_cast<double>(result.metrics.ops.total()));
}

}  // namespace
}  // namespace skypeer
