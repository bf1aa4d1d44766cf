// Compact scan traces (`ScanTrace`): one 8-byte record per accepted
// offer, everything else rebuilt at replay time. A replay under any
// threshold no larger than the recorded one must equal the direct
// threshold scan on every reported quantity — survivors in order, scan
// count, final threshold and every `OpCounts` field, dominance charges
// included. The sweep below checks that at every cut of the recorded
// prefix, with block skipping on and off, with and without filter seeds,
// on resident and paged stores, under the default and a compaction-heavy
// window policy, and under both kernel dispatch modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "skypeer/algo/filter_set.h"
#include "skypeer/algo/result_list.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/page_layout.h"
#include "skypeer/storage/paged_store.h"
#include "skypeer/storage/store_summary.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {
namespace {

constexpr size_t kPageSize = 4096;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Dataset {
  std::string name;
  ResultList store{1};
  std::vector<Subspace> subspaces;
};

// Each accepted point dominates (and evicts) its predecessor on the full
// space: the window compacts again and again.
ResultList EvictHeavyStream(size_t n) {
  PointSet points(2);
  for (size_t i = 0; i < n; ++i) {
    const double p[2] = {0.25, 1.0 - static_cast<double>(i) / (2.0 * n)};
    points.Append(p, static_cast<PointId>(i));
  }
  return BuildSortedByF(points);
}

ResultList GriddedTies(int dims, size_t n, Rng* rng) {
  PointSet points(dims);
  std::vector<double> row(static_cast<size_t>(dims));
  for (size_t i = 0; i < n; ++i) {
    for (double& value : row) {
      value = static_cast<double>(rng->UniformInt(0, 3)) / 4.0;
    }
    points.Append(row.data(), static_cast<PointId>(i));
  }
  return BuildSortedByF(points);
}

std::vector<Dataset> Datasets() {
  Rng rng(151);
  std::vector<Dataset> sets;
  sets.push_back({"uniform_k3", BuildSortedByF(GenerateUniform(4, 500, &rng)),
                  {Subspace::FromDims({0, 1, 3}), Subspace::FromDims({2}),
                   Subspace::FullSpace(4)}});
  // Large, evict-heavy windows: most offers are accepted and most
  // accepts evict, so compaction runs throughout.
  sets.push_back({"anticorrelated_k4",
                  BuildSortedByF(GenerateAnticorrelated(5, 260, &rng)),
                  {Subspace::FromDims({0, 1, 2, 4})}});
  sets.push_back({"correlated_k2",
                  BuildSortedByF(GenerateCorrelated(4, 300, &rng)),
                  {Subspace::FromDims({1, 3})}});
  sets.push_back(
      {"gridded_ties", GriddedTies(3, 300, &rng), {Subspace::FullSpace(3)}});
  sets.push_back(
      {"evict_heavy", EvictHeavyStream(400), {Subspace::FullSpace(2)}});
  return sets;
}

// Thresholds that place the cut at every position of the recorded
// prefix: each f value and the value just below it, plus infinity, the
// recorded final threshold and one value below every f.
std::vector<double> EveryCut(const ResultList& store, size_t scanned,
                             double recorded_final) {
  std::vector<double> thresholds = {kInf, recorded_final, -1.0};
  const size_t end = std::min(store.size(), scanned + 1);
  for (size_t i = 0; i < end; ++i) {
    thresholds.push_back(store.f[i]);
    thresholds.push_back(std::nextafter(store.f[i], -kInf));
  }
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  return thresholds;
}

void ExpectSameList(const ResultList& want, const ResultList& got,
                    const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.points.id(i), got.points.id(i)) << context << " row " << i;
    ASSERT_EQ(want.f[i], got.f[i]) << context << " row " << i;
  }
}

// Replays `trace` under every threshold in `thresholds` no larger than
// its recorded one and compares against the direct scan with `options`.
void ExpectReplaysMatch(const StoreView& view, Subspace u,
                        ThresholdScanOptions options, const ScanTrace& trace,
                        const std::vector<double>& thresholds,
                        const std::string& context) {
  for (double threshold : thresholds) {
    if (threshold > trace.threshold_in()) {
      continue;
    }
    options.initial_threshold = threshold;
    ThresholdScanStats direct_stats;
    const ResultList direct = SortedSkyline(view, u, options, &direct_stats);
    ThresholdScanStats replay_stats;
    const ResultList replayed =
        ReplayScanTrace(view, trace, threshold, &replay_stats);
    const std::string where = context + " t=" + std::to_string(threshold);
    ExpectSameList(direct, replayed, where);
    ASSERT_EQ(direct_stats.scanned, replay_stats.scanned) << where;
    ASSERT_EQ(direct_stats.final_threshold, replay_stats.final_threshold)
        << where;
    ASSERT_TRUE(direct_stats.ops == replay_stats.ops)
        << where << "\n  direct: " << direct_stats.ops.ToString()
        << "\n  replay: " << replay_stats.ops.ToString();
  }
}

TEST(ScanTraceReplay, MatchesDirectScanAtEveryCut) {
  BufferManager buffer(kPageSize, 4, ThreadPool::Global());
  Rng rng(77);
  size_t replays_checked = 0;
  for (const Dataset& set : Datasets()) {
    const int dims = set.store.points.dims();
    const PageLayout layout(kPageSize, dims);
    const StoreSummary summary = StoreSummary::Build(set.store, layout);
    const PagedStore paged = PagedStore::Build(set.store, &buffer);
    const StoreView resident_view(&set.store, kPageSize, &summary);
    const StoreView paged_view(&paged);
    // A filter drawn from another store's skyline: seeds that prune and
    // get evicted like a broadcast filter set does.
    const ResultList other = BuildSortedByF(GenerateUniform(dims, 120, &rng));
    for (Subspace u : set.subspaces) {
      const ResultList filter =
          SelectFilterSet(SortedSkyline(other, u), u, 6, nullptr);
      for (bool block_skip : {false, true}) {
        for (bool filtered : {false, true}) {
          for (bool tight_compaction : {false, true}) {
            ThresholdScanOptions options;
            options.block_skip = block_skip;
            options.filter = filtered ? &filter : nullptr;
            if (tight_compaction) {
              options.compact_min_window = 4;
              options.compact_live_fraction = 0.9;
            }
            for (bool scalar : {false, true}) {
              SetForceScalarKernels(scalar);
              for (bool use_paged : {false, true}) {
                const StoreView& view =
                    use_paged ? paged_view : resident_view;
                const std::string context =
                    set.name + " u=" + u.ToString() +
                    (block_skip ? " skip" : "") +
                    (filtered ? " filtered" : "") +
                    (tight_compaction ? " tight" : "") +
                    (scalar ? " scalar" : " simd") +
                    (use_paged ? " paged" : " resident");
                ThresholdScanStats recorded;
                ScanTrace trace;
                TracedSortedSkyline(view, u, options, &recorded, &trace);
                ASSERT_EQ(trace.size(), recorded.scanned) << context;
                ASSERT_EQ(trace.block_skip(), block_skip) << context;
                const std::vector<double> thresholds = EveryCut(
                    set.store, recorded.scanned, recorded.final_threshold);
                ExpectReplaysMatch(view, u, options, trace, thresholds,
                                   context);
                replays_checked += thresholds.size();
              }
              SetForceScalarKernels(false);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(replays_checked, 10000u);
}

TEST(ScanTraceReplay, ExtendedScansAndFiniteRecordedThresholds) {
  // Ext-dominance scans, and traces recorded under a finite threshold
  // (a speculative scan under the initiator's value) replay exactly too.
  Rng rng(8);
  const ResultList store = BuildSortedByF(GenerateAnticorrelated(4, 400, &rng));
  const StoreSummary summary =
      StoreSummary::Build(store, PageLayout(kPageSize, 4));
  const StoreView view(&store, kPageSize, &summary);
  const Subspace u = Subspace::FromDims({0, 2, 3});
  for (bool ext : {false, true}) {
    for (bool block_skip : {false, true}) {
      for (double recorded_threshold : {kInf, store.f[store.size() / 3]}) {
        ThresholdScanOptions options;
        options.ext = ext;
        options.block_skip = block_skip;
        options.initial_threshold = recorded_threshold;
        ThresholdScanStats recorded;
        ScanTrace trace;
        TracedSortedSkyline(view, u, options, &recorded, &trace);
        const std::string context = std::string(ext ? "ext" : "plain") +
                                    (block_skip ? " skip" : "") +
                                    " recorded=" +
                                    std::to_string(recorded_threshold);
        ExpectReplaysMatch(
            view, u, options, trace,
            EveryCut(store, recorded.scanned, recorded.final_threshold),
            context);
      }
    }
  }
}

TEST(ScanTraceReplay, BytesPerAcceptedOffer) {
  // 8 bytes per accepted offer, and nothing per rejected position: the
  // trace of an unfiltered scan without block skipping is its accepts
  // plus a fixed header.
  Rng rng(3);
  const ResultList store = BuildSortedByF(GenerateUniform(8, 4000, &rng));
  size_t accepts = 0;
  size_t scanned = 0;
  size_t bytes = 0;
  size_t traces = 0;
  for (uint32_t mask = 1; mask < (1u << 8); mask += 7) {
    ScanTrace trace;
    ThresholdScanStats stats;
    TracedSortedSkyline(store, Subspace(mask), {}, &stats, &trace);
    EXPECT_EQ(trace.ByteSize(),
              sizeof(ScanTrace) + 8 * trace.num_accepts());
    accepts += trace.num_accepts();
    scanned += trace.size();
    bytes += trace.ByteSize();
    ++traces;
  }
  const double per_accept =
      static_cast<double>(bytes - traces * sizeof(ScanTrace)) /
      static_cast<double>(accepts);
  const double per_accept_with_header =
      static_cast<double>(bytes) / static_cast<double>(accepts);
  RecordProperty("event_bytes_per_accept", std::to_string(per_accept));
  RecordProperty("bytes_per_accept_with_header",
                 std::to_string(per_accept_with_header));
  std::printf(
      "scan traces: %zu traces, %.1f accepts and %.1f scanned positions "
      "each; %.1f event bytes per accepted offer, %.1f with the %zu-byte "
      "header\n",
      traces, static_cast<double>(accepts) / traces,
      static_cast<double>(scanned) / traces, per_accept,
      per_accept_with_header, sizeof(ScanTrace));
  EXPECT_EQ(per_accept, 8.0);
  EXPECT_LT(accepts, scanned);
}

TEST(ScanTraceReplay, PagedReplayReadsNoPagesAhead) {
  // The replay jumps to the pages of its accepted rows and the cut block;
  // it never prefetches, and pins no more pages than the direct scan.
  Rng rng(12);
  const ResultList store = BuildSortedByF(GenerateUniform(6, 3000, &rng));
  BufferManager buffer(kPageSize, 4, ThreadPool::Global());
  const PagedStore paged = PagedStore::Build(store, &buffer);
  const StoreView view(&paged);
  const Subspace u = Subspace::FromDims({0, 3, 5});
  ScanTrace trace;
  ThresholdScanStats recorded;
  TracedSortedSkyline(view, u, {}, &recorded, &trace);
  ASSERT_GT(trace.num_accepts(), 0u);

  const BufferManager::Stats before = buffer.stats();
  ThresholdScanStats replay_stats;
  ReplayScanTrace(view, trace, recorded.final_threshold, &replay_stats);
  const BufferManager::Stats after = buffer.stats();
  EXPECT_EQ(after.prefetches_issued, before.prefetches_issued);
  const uint64_t pins =
      (after.hits - before.hits) + (after.misses - before.misses);
  EXPECT_LE(pins, replay_stats.ops.page_reads);
}

}  // namespace
}  // namespace skypeer
