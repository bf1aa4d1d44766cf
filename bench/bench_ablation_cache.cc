// Ablation: the per-subspace result cache at super-peers. A repeated
// workload (few distinct subspaces, many queries) is answered by
// filtering cached local skylines by the incoming threshold instead of
// rescanning the store. Reports computational time with and without the
// cache.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int queries = options.QueriesOr(40);

  std::printf("== Ablation: per-subspace result cache at super-peers ==\n");
  Table table({"variant", "no cache comp (ms)", "cache comp (ms)", "speedup"});

  // A workload with only C(4,3)=4 distinct subspaces over dims {0..3} so
  // repetitions are guaranteed.
  for (Variant variant : {Variant::kFTFM, Variant::kFTPM, Variant::kRTPM}) {
    double comp[2] = {0.0, 0.0};
    for (int cached = 0; cached < 2; ++cached) {
      NetworkConfig config;
      config.num_peers = 2000;
      config.num_super_peers = 100;
      config.dims = 4;
      config.seed = options.seed;
      config.enable_cache = cached == 1;
      SkypeerNetwork network(config);
      network.Preprocess();
      const auto tasks = GenerateWorkload(4, 3, queries,
                                          network.num_super_peers(),
                                          options.seed + 5);
      const AggregateMetrics agg = RunWorkload(&network, tasks, variant);
      comp[cached] = agg.avg_comp_s();
    }
    table.AddRow({VariantName(variant), FmtMs(comp[0]), FmtMs(comp[1]),
                  Fmt(comp[0] / comp[1], 2) + "x"});
  }
  table.Print();
  return 0;
}
