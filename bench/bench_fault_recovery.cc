// Fault recovery (§A11): cost of the reliable protocol under injected
// faults. Two sweeps on one network:
//   1. message loss — response time and traffic overhead the
//      retransmission machinery pays to keep the answer bit-identical to
//      the fault-free run;
//   2. crashed super-peers — coverage and partial-result rate of the
//      graceful degradation path (reroute around dead nodes, answer with
//      the reachable stores).
// All runs use the virtual clock only (no measured CPU), so every number
// is bit-reproducible per seed.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int queries = options.QueriesOr(20);

  NetworkConfig base;
  base.num_peers = 2000;
  base.num_super_peers = 100;
  base.dims = 8;
  base.seed = options.seed;
  base.measure_cpu = false;
  base.speculative_rt = options.speculative_rt;
  base.reliable = true;

  std::printf("== Fault recovery: reliable protocol under injected faults "
              "==\n");

  std::printf("\n-- message loss sweep (FTPM, %d queries) --\n", queries);
  Table loss_table({"drop prob", "total (s)", "volume (KB)", "retrans/query",
                    "coverage", "partial"});
  double baseline_s = 0.0;
  double baseline_kb = 0.0;
  for (const double drop : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    NetworkConfig config = base;
    config.drop_prob = drop;
    SkypeerNetwork network(config);
    network.Preprocess();
    const auto tasks = GenerateWorkload(config.dims, 3, queries,
                                        network.num_super_peers(),
                                        options.seed + 7);
    const AggregateMetrics agg = RunWorkload(&network, tasks, Variant::kFTPM);
    if (drop == 0.0) {
      baseline_s = agg.avg_total_s();
      baseline_kb = agg.avg_kb();
    }
    loss_table.AddRow(
        {Fmt(drop, 2),
         Fmt(agg.avg_total_s(), 2) + " (" +
             Fmt(agg.avg_total_s() / baseline_s, 2) + "x)",
         Fmt(agg.avg_kb(), 1) + " (" + Fmt(agg.avg_kb() / baseline_kb, 2) +
             "x)",
         Fmt(agg.avg_retransmits(), 1), Fmt(agg.avg_coverage() * 100, 1) + "%",
         std::to_string(agg.partial_queries) + "/" +
             std::to_string(agg.queries)});
  }
  loss_table.Print();

  std::printf("\n-- crashed super-peer sweep (all variants, %d queries, "
              "max 2 retries) --\n",
              queries);
  Table crash_table({"variant", "crashed", "total (s)", "coverage",
                     "partial", "gave-up hops/query"});
  for (Variant variant : {Variant::kFTFM, Variant::kFTPM, Variant::kRTPM,
                          Variant::kPipeline}) {
    for (const int crashes : {0, 1, 3}) {
      NetworkConfig config = base;
      config.max_retries = 2;
      for (int c = 0; c < crashes; ++c) {
        // Spread the crashed nodes over the backbone; never crash node 0
        // so the workload's initiators stay alive more often than not.
        config.crashed_sps.push_back(17 + 31 * c);
      }
      SkypeerNetwork network(config);
      network.Preprocess();
      const auto tasks = GenerateWorkload(config.dims, 3, queries,
                                          network.num_super_peers(),
                                          options.seed + 7);
      const AggregateMetrics agg = RunWorkload(&network, tasks, variant);
      crash_table.AddRow(
          {VariantName(variant), std::to_string(crashes),
           Fmt(agg.avg_total_s(), 2), Fmt(agg.avg_coverage() * 100, 1) + "%",
           std::to_string(agg.partial_queries) + "/" +
               std::to_string(agg.queries),
           Fmt(agg.avg_gave_up(), 2)});
    }
  }
  crash_table.Print();
  return 0;
}
