// Block-skipping threshold scans (`ThresholdScanOptions::block_skip`):
// consulting the store's zone-map summary before each 8-wide block is
// invisible to everything the scan reports except the new
// `summary_tests`/`blocks_skipped` charges and reduced scan-step /
// page-read charges. The randomized property test below drives the
// plain scan and its block-skip twin through random dimensionalities,
// distributions, subspaces, dominance semantics, thresholds, filter
// seeds, page sizes and both store modes, and asserts identical
// skylines, scan counts, final thresholds and window evolution
// (recorded traces), plus bit-identical op counts across store modes
// and kernels, and checks unconstrained scans against the BNL and SFS
// oracles. Replays of skip traces must reproduce the direct scan under
// any tighter threshold — the property the speculative-RT path depends
// on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/filter_set.h"
#include "skypeer/algo/result_list.h"
#include "skypeer/algo/sfs.h"
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

// --- page/block alignment ----------------------------------------------------

TEST(BlockSkipAlignment, PagesHoldWholeBlocks) {
  // The skip-aware cursor and the summary index both assume a store
  // block never straddles a page. That holds by construction: pages
  // hold whole blocks (`PageLayout::points_per_page`).
  for (int dims = 1; dims <= 16; ++dims) {
    for (size_t page_size : {1024u, 2048u, 4096u, 8192u, 65536u}) {
      const size_t bytes_per_block =
          (static_cast<size_t>(dims) + 2) * kDomBlockWidth * sizeof(double);
      if (page_size < bytes_per_block) {
        continue;  // A page must hold at least one whole block.
      }
      const PageLayout layout(page_size, dims);
      EXPECT_EQ(layout.points_per_page() % kDomBlockWidth, 0u)
          << "dims=" << dims << " page_size=" << page_size;
    }
  }
}

// --- randomized scan equivalence ---------------------------------------------

PointSet RandomData(int dims, size_t n, int distribution, Rng* rng) {
  switch (distribution) {
    case 0:
      return GenerateUniform(dims, n, rng);
    case 1:
      return GenerateCorrelated(dims, n, rng);
    default:
      return GenerateAnticorrelated(dims, n, rng);
  }
}

Subspace RandomSubspace(int dims, Rng* rng) {
  std::vector<int> chosen;
  for (int d = 0; d < dims; ++d) {
    if (rng->Uniform() < 0.5) {
      chosen.push_back(d);
    }
  }
  if (chosen.empty()) {
    chosen.push_back(static_cast<int>(rng->UniformInt(0, dims - 1)));
  }
  return Subspace::FromDims(chosen);
}

void ExpectSameResult(const ResultList& a, const ResultList& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points.id(i), b.points.id(i)) << context << " row " << i;
    EXPECT_EQ(a.f[i], b.f[i]) << context << " row " << i;
  }
}

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// An unconstrained, unfiltered scan of `store` is its (extended)
/// skyline on `u`: the BNL and SFS oracles must find the same points.
void ExpectMatchesOracles(const ResultList& scanned, const ResultList& store,
                          Subspace u, bool ext, const std::string& context) {
  const std::vector<PointId> ids = SortedIds(scanned.points);
  EXPECT_EQ(ids, SortedIds(BnlSkyline(store.points, u, ext))) << context;
  EXPECT_EQ(ids, SortedIds(SfsSkyline(store.points, u, ext))) << context;
}

TEST(BlockSkipProperty, RandomizedScanEquivalence) {
  Rng rng(20260808);
  for (int trial = 0; trial < 30; ++trial) {
    const int dims = 2 + static_cast<int>(rng.UniformInt(0, 4));
    const size_t n = 32 + rng.UniformInt(0, 600);
    const size_t page_size = rng.Uniform() < 0.5 ? 1024 : 4096;
    const ResultList sorted =
        BuildSortedByF(RandomData(dims, n, trial % 3, &rng));
    const PageLayout layout(page_size, dims);
    const StoreSummary summary = StoreSummary::Build(sorted, layout);
    const StoreView plain_view(&sorted, page_size);
    const StoreView skip_view(&sorted, page_size, &summary);

    const Subspace u = RandomSubspace(dims, &rng);
    ThresholdScanOptions plain_options;
    plain_options.ext = rng.Uniform() < 0.3;

    // Sometimes seed the window with a broadcast filter set from a
    // disjoint list, sometimes constrain the initial threshold.
    ResultList filter(dims);
    if (rng.Uniform() < 0.5) {
      const ResultList initiator =
          BuildSortedByF(RandomData(dims, n / 2 + 1, trial % 3, &rng));
      filter = SelectFilterSet(SortedSkyline(initiator, u), u,
                               1 + rng.UniformInt(0, 7), nullptr);
      if (!filter.empty()) {
        plain_options.filter = &filter;
      }
    }
    if (rng.Uniform() < 0.4) {
      plain_options.initial_threshold = sorted.f[rng.UniformInt(0, n - 1)];
    }
    ThresholdScanOptions skip_options = plain_options;
    skip_options.block_skip = true;

    const std::string context = "trial " + std::to_string(trial);
    ThresholdScanStats plain_stats;
    ScanTrace plain_trace;
    const ResultList plain = TracedSortedSkyline(plain_view, u, plain_options,
                                                 &plain_stats, &plain_trace);
    ThresholdScanStats skip_stats;
    ScanTrace skip_trace;
    const ResultList skip = TracedSortedSkyline(skip_view, u, skip_options,
                                                &skip_stats, &skip_trace);

    // Identical answer, scan count, threshold and window evolution.
    ExpectSameResult(plain, skip, context);
    EXPECT_EQ(plain_stats.scanned, skip_stats.scanned) << context;
    EXPECT_EQ(plain_stats.final_threshold, skip_stats.final_threshold)
        << context;
    EXPECT_EQ(plain_trace.size(), skip_trace.size()) << context;
    ASSERT_EQ(plain_trace.num_accepts(), skip_trace.num_accepts()) << context;
    for (size_t k = 0; k < plain_trace.num_accepts(); ++k) {
      EXPECT_EQ(plain_trace.accept(k).position, skip_trace.accept(k).position)
          << context;
      EXPECT_EQ(plain_trace.accept(k).evictor, skip_trace.accept(k).evictor)
          << context;
    }
    ASSERT_EQ(plain_trace.num_seed_evictions(),
              skip_trace.num_seed_evictions())
        << context;
    for (size_t s = 0; s < plain_trace.num_seed_evictions(); ++s) {
      EXPECT_EQ(plain_trace.seed_evictor(s), skip_trace.seed_evictor(s))
          << context;
    }
    EXPECT_FALSE(plain_trace.block_skip()) << context;
    EXPECT_TRUE(skip_trace.block_skip()) << context;
    if (plain_options.filter == nullptr &&
        std::isinf(plain_options.initial_threshold)) {
      ExpectMatchesOracles(skip, sorted, u, plain_options.ext, context);
    }

    // Op counts: a plain scan never charges the skip counters, and
    // skipping only ever removes per-point work.
    EXPECT_EQ(plain_stats.ops.summary_tests, 0u) << context;
    EXPECT_EQ(plain_stats.ops.blocks_skipped, 0u) << context;
    EXPECT_LE(skip_stats.ops.dominance_tests, plain_stats.ops.dominance_tests)
        << context;
    EXPECT_LE(skip_stats.ops.scan_steps, plain_stats.ops.scan_steps)
        << context;
    EXPECT_LE(skip_stats.ops.page_reads, plain_stats.ops.page_reads)
        << context;

    // Both store modes and both kernel families report bit-identical op
    // counts under skipping.
    BufferManager buffer(page_size, 4, ThreadPool::Global());
    const PagedStore paged_store = PagedStore::Build(sorted, &buffer);
    const StoreView paged(&paged_store);
    ThresholdScanStats paged_stats;
    const ResultList paged_result =
        SortedSkyline(paged, u, skip_options, &paged_stats);
    ExpectSameResult(skip, paged_result, context + " paged");
    EXPECT_TRUE(paged_stats.ops == skip_stats.ops)
        << context << "\n  resident: " << skip_stats.ops.ToString()
        << "\n  paged:    " << paged_stats.ops.ToString();

    SetForceScalarKernels(true);
    ThresholdScanStats scalar_stats;
    const ResultList scalar_result =
        SortedSkyline(skip_view, u, skip_options, &scalar_stats);
    SetForceScalarKernels(false);
    ExpectSameResult(skip, scalar_result, context + " scalar");
    EXPECT_TRUE(scalar_stats.ops == skip_stats.ops)
        << context << "\n  simd:   " << skip_stats.ops.ToString()
        << "\n  scalar: " << scalar_stats.ops.ToString();
  }
}

TEST(BlockSkipProperty, NoSummaryFallsBackToThePlainScan) {
  // `block_skip` on a view without an attached summary is the plain
  // scan, bit for bit — the engine relies on this when a store has no
  // summary (e.g. an empty one).
  Rng rng(5);
  const ResultList sorted = BuildSortedByF(GenerateUniform(4, 200, &rng));
  const StoreView view(&sorted, 4096);
  ASSERT_EQ(view.summary(), nullptr);
  const Subspace u = Subspace::FromDims({0, 2});
  ThresholdScanOptions skip_options;
  skip_options.block_skip = true;
  ThresholdScanStats plain_stats, skip_stats;
  const ResultList plain = SortedSkyline(view, u, {}, &plain_stats);
  const ResultList skip = SortedSkyline(view, u, skip_options, &skip_stats);
  ExpectSameResult(plain, skip, "no summary");
  EXPECT_TRUE(plain_stats.ops == skip_stats.ops);
  EXPECT_EQ(skip_stats.ops.summary_tests, 0u);
}

// --- replay prefix-equivalence -----------------------------------------------

TEST(BlockSkipProperty, ReplayMatchesDirectScanUnderTighterThresholds) {
  // The speculative-RT staging path records one traced scan per store
  // and replays it under every later (tighter) threshold; with skipping
  // the replay reconstructs the skip charges from `block_rejected`. The
  // replay must match the direct block-skip scan under the same
  // threshold, operation for operation.
  Rng rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    const int dims = 3 + static_cast<int>(rng.UniformInt(0, 2));
    const size_t n = 64 + rng.UniformInt(0, 400);
    const ResultList sorted =
        BuildSortedByF(RandomData(dims, n, trial % 3, &rng));
    const PageLayout layout(4096, dims);
    const StoreSummary summary = StoreSummary::Build(sorted, layout);
    const StoreView view(&sorted, 4096, &summary);
    const Subspace u = RandomSubspace(dims, &rng);

    ThresholdScanOptions options;
    options.block_skip = true;
    ThresholdScanStats recorded_stats;
    ScanTrace trace;
    const ResultList recorded =
        TracedSortedSkyline(view, u, options, &recorded_stats, &trace);
    ExpectMatchesOracles(recorded, sorted, u, /*ext=*/false,
                         "trial " + std::to_string(trial));

    for (int probe = 0; probe < 6; ++probe) {
      const double tighter =
          recorded_stats.final_threshold * rng.Uniform();
      ThresholdScanOptions direct_options = options;
      direct_options.initial_threshold = tighter;
      ThresholdScanStats direct_stats;
      const ResultList direct =
          SortedSkyline(view, u, direct_options, &direct_stats);
      ThresholdScanStats replay_stats;
      const ResultList replayed =
          ReplayScanTrace(view, trace, tighter, &replay_stats);
      const std::string context = "trial " + std::to_string(trial) +
                                  " threshold " + std::to_string(tighter);
      ExpectSameResult(direct, replayed, context);
      EXPECT_EQ(direct_stats.scanned, replay_stats.scanned) << context;
      EXPECT_EQ(direct_stats.final_threshold, replay_stats.final_threshold)
          << context;
      EXPECT_TRUE(direct_stats.ops == replay_stats.ops)
          << context << "\n  direct: " << direct_stats.ops.ToString()
          << "\n  replay: " << replay_stats.ops.ToString();
    }
  }
}

}  // namespace
}  // namespace skypeer
