// Ablation: the per-subspace scan-trace cache at super-peers (on by
// default). A repeated workload (few distinct subspaces, many queries)
// replays each super-peer's recorded unconstrained scan under the
// incoming threshold instead of rescanning the store. Reports, per
// variant, computational time without and with the cache, the cache's
// entries, bytes per entry and hit share; then, per (super-peer,
// subspace) of the network, the host time of one replay against one
// direct scan of the same store under the same threshold.

#include <chrono>
#include <set>

#include "bench/bench_util.h"
#include "skypeer/algo/sorted_skyline.h"

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int queries = options.QueriesOr(40);

  NetworkConfig base;
  base.num_peers = 2000;
  base.num_super_peers = 100;
  base.dims = 4;
  base.seed = options.seed;

  std::printf("== Ablation: per-subspace scan-trace cache at super-peers ==\n");
  Table table({"variant", "no cache comp (ms)", "cache comp (ms)", "speedup",
               "entries", "bytes/entry", "hit share"});

  // A workload with only C(4,3)=4 distinct subspaces over dims {0..3} so
  // repetitions are guaranteed.
  for (Variant variant : {Variant::kFTFM, Variant::kFTPM, Variant::kRTPM}) {
    double comp[2] = {0.0, 0.0};
    AggregateMetrics cached_agg;
    for (int cached = 0; cached < 2; ++cached) {
      NetworkConfig config = base;
      config.enable_cache = cached == 1;
      SkypeerNetwork network = BuildNetwork(config, options);
      network.Preprocess();
      const auto tasks = GenerateWorkload(4, 3, queries,
                                          network.num_super_peers(),
                                          options.seed + 5);
      const AggregateMetrics agg = RunWorkload(&network, tasks, variant);
      comp[cached] = agg.avg_comp_s();
      if (cached == 1) {
        cached_agg = agg;
      }
    }
    const uint64_t lookups = cached_agg.cache_hits + cached_agg.cache_misses;
    table.AddRow(
        {VariantName(variant), FmtMs(comp[0]), FmtMs(comp[1]),
         Fmt(comp[0] / comp[1], 2) + "x",
         std::to_string(cached_agg.cache_entries),
         cached_agg.cache_entries > 0
             ? Fmt(static_cast<double>(cached_agg.cache_bytes) /
                       static_cast<double>(cached_agg.cache_entries),
                   1)
             : "-",
         lookups > 0 ? Fmt(static_cast<double>(cached_agg.cache_hits) /
                               static_cast<double>(lookups),
                           3)
                     : "-"});
  }
  table.Print();

  // Replay vs direct scan, host time, over every (super-peer, subspace)
  // pair of the workload: one traced unconstrained scan per pair, then
  // `kRepeats` direct scans and replays under infinity.
  constexpr int kRepeats = 20;
  NetworkConfig config = base;
  SkypeerNetwork network = BuildNetwork(config, options);
  network.Preprocess();
  std::set<uint32_t> masks;
  for (const QueryTask& task :
       GenerateWorkload(4, 3, queries, network.num_super_peers(),
                        options.seed + 5)) {
    masks.insert(task.subspace.mask());
  }
  double direct_us = 0.0;
  double replay_us = 0.0;
  double accepts = 0.0;
  double scanned = 0.0;
  double bytes = 0.0;
  size_t pairs = 0;
  for (int sp = 0; sp < network.num_super_peers(); ++sp) {
    const StoreView view = network.super_peer(sp).View();
    for (uint32_t mask : masks) {
      const Subspace u(mask);
      ScanTrace trace;
      TracedSortedSkyline(view, u, {}, nullptr, &trace);
      auto start = Clock::now();
      for (int r = 0; r < kRepeats; ++r) {
        ThresholdScanStats stats;
        SortedSkyline(view, u, {}, &stats);
      }
      direct_us += MicrosSince(start) / kRepeats;
      start = Clock::now();
      for (int r = 0; r < kRepeats; ++r) {
        ThresholdScanStats stats;
        ReplayScanTrace(view, trace, trace.threshold_in(), &stats);
      }
      replay_us += MicrosSince(start) / kRepeats;
      accepts += static_cast<double>(trace.num_accepts());
      scanned += static_cast<double>(trace.size());
      bytes += static_cast<double>(trace.ByteSize());
      ++pairs;
    }
  }
  const double n = static_cast<double>(pairs);
  std::printf("\n== Replay vs direct scan (host time per scan) ==\n");
  Table replay_table({"pairs", "scanned", "accepted", "trace bytes",
                      "direct (us)", "replay (us)", "speedup"});
  replay_table.AddRow({std::to_string(pairs), Fmt(scanned / n, 1),
                       Fmt(accepts / n, 1), Fmt(bytes / n, 1),
                       Fmt(direct_us / n, 2), Fmt(replay_us / n, 2),
                       Fmt(direct_us / replay_us, 1) + "x"});
  replay_table.Print();
  return 0;
}
