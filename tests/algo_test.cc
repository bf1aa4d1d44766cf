// Tests for the centralized skyline substrate: cross-algorithm
// equivalence (BNL = SFS = D&C = SortedSkyline) over a parameterized
// sweep, SkylineAccumulator semantics, Algorithm 2 merging, and the
// f-sorted list builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/divide_conquer.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/result_list.h"
#include "skypeer/algo/sfs.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

PointSet MakeData(Distribution distribution, int dims, size_t n,
                  uint64_t seed) {
  Rng rng(seed);
  switch (distribution) {
    case Distribution::kUniform:
      return GenerateUniform(dims, n, &rng);
    case Distribution::kClustered:
      return GenerateClustered(RandomCentroid(dims, &rng), n, kClusterStdDev,
                               &rng);
    case Distribution::kCorrelated:
      return GenerateCorrelated(dims, n, &rng);
    case Distribution::kAnticorrelated:
      return GenerateAnticorrelated(dims, n, &rng);
  }
  return PointSet(dims);
}

// Reference skyline: quadratic double loop, no cleverness at all.
std::vector<PointId> ReferenceSkyline(const PointSet& points, Subspace u,
                                      bool ext) {
  std::vector<PointId> result;
  for (size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i == j) {
        continue;
      }
      dominated = ext ? ExtDominates(points[j], points[i], u)
                      : Dominates(points[j], points[i], u);
    }
    if (!dominated) {
      result.push_back(points.id(i));
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

// --- fixed, hand-checked instances -------------------------------------

TEST(Bnl, PaperFigure2PeerA) {
  // Peer P_A from the paper's Figure 2: A1..A5, dimensionality 4.
  // Skyline = {A1, A2, A4, A5}; ext-skyline additionally contains A3.
  PointSet data(4, {{2, 2, 2, 2},    // A1 (id 0)
                    {1, 3, 2, 3},    // A2 (id 1)
                    {1, 3, 5, 4},    // A3 (id 2)
                    {2, 3, 2, 1},    // A4 (id 3)
                    {5, 2, 4, 1}});  // A5 (id 4)
  Subspace full = Subspace::FullSpace(4);
  EXPECT_EQ(SortedIds(BnlSkyline(data, full)),
            (std::vector<PointId>{0, 1, 3, 4}));
  EXPECT_EQ(SortedIds(BnlSkyline(data, full, /*ext=*/true)),
            (std::vector<PointId>{0, 1, 2, 3, 4}));
}

TEST(Bnl, PaperFigure2PeerC) {
  // Peer P_C: skyline {C4}; ext-skyline {C4, C5} per the paper's text.
  PointSet data(4, {{5, 7, 6, 8},    // C1 (id 0)
                    {7, 5, 8, 5},    // C2 (id 1)
                    {6, 5, 5, 6},    // C3 (id 2)
                    {1, 1, 3, 4},    // C4 (id 3)
                    {6, 6, 6, 4}});  // C5 (id 4)
  Subspace full = Subspace::FullSpace(4);
  EXPECT_EQ(SortedIds(BnlSkyline(data, full)), (std::vector<PointId>{3}));
  EXPECT_EQ(SortedIds(BnlSkyline(data, full, /*ext=*/true)),
            (std::vector<PointId>{3, 4}));
}

TEST(Bnl, AllEqualPointsAreAllSkyline) {
  PointSet data(2, {{1, 1}, {1, 1}, {1, 1}});
  EXPECT_EQ(BnlSkyline(data, Subspace::FullSpace(2)).size(), 3u);
  EXPECT_EQ(BnlSkyline(data, Subspace::FullSpace(2), true).size(), 3u);
}

TEST(Bnl, SingleDimension) {
  PointSet data(3, {{5, 0, 0}, {3, 9, 9}, {3, 1, 1}, {4, 0, 0}});
  // On dim 0 only: minimum value 3 appears twice; both are skyline.
  EXPECT_EQ(SortedIds(BnlSkyline(data, Subspace::FromDims({0}))),
            (std::vector<PointId>{1, 2}));
}

TEST(Bnl, EmptyInput) {
  PointSet data(2);
  EXPECT_TRUE(BnlSkyline(data, Subspace::FullSpace(2)).empty());
}

TEST(SortedSkyline, StatsReportScanAndThreshold) {
  // Points sorted by f: the scan must stop early.
  PointSet data(2, {{0.1, 0.1},    // f=0.1, dist=0.1 -> threshold 0.1
                    {0.2, 0.05},   // f=0.05 ... appears first after sort
                    {0.5, 0.6},    // f=0.5 > 0.1: never scanned
                    {0.9, 0.8}});  // f=0.8: never scanned
  ResultList sorted = BuildSortedByF(data);
  ThresholdScanStats stats;
  ResultList result =
      SortedSkyline(sorted, Subspace::FullSpace(2), {}, &stats);
  EXPECT_EQ(stats.scanned, 2u);
  EXPECT_EQ(stats.final_threshold, 0.1);
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{0, 1}));
}

TEST(SortedSkyline, InitialThresholdPrunesEverything) {
  PointSet data(2, {{0.5, 0.5}, {0.6, 0.7}});
  ResultList sorted = BuildSortedByF(data);
  ThresholdScanOptions options;
  options.initial_threshold = 0.2;  // Smaller than every f.
  ThresholdScanStats stats;
  ResultList result =
      SortedSkyline(sorted, Subspace::FullSpace(2), options, &stats);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(stats.scanned, 0u);
}

TEST(SortedSkyline, TieWithThresholdIsNotLost) {
  // q ties p on every queried dimension and has f == dist_U(p): a scan
  // with a strict `<` stop condition would drop it. Exactness requires
  // both in the skyline.
  PointSet data(2, {{0.3, 0.3}, {0.3, 0.3}});
  ResultList sorted = BuildSortedByF(data);
  ResultList result = SortedSkyline(sorted, Subspace::FullSpace(2));
  EXPECT_EQ(result.size(), 2u);
}

TEST(BuildSortedByF, SortsAndComputesF) {
  PointSet data(3, {{0.9, 0.5, 0.7}, {0.2, 0.8, 0.4}, {0.6, 0.1, 0.9}});
  ResultList sorted = BuildSortedByF(data);
  ASSERT_TRUE(sorted.IsSorted());
  EXPECT_EQ(sorted.f, (std::vector<double>{0.1, 0.2, 0.5}));
  EXPECT_EQ(sorted.points.id(0), 2u);
  EXPECT_EQ(sorted.points.id(1), 1u);
  EXPECT_EQ(sorted.points.id(2), 0u);
}

TEST(ResultList, IsSortedDetectsViolations) {
  ResultList list(2);
  PointSet data(2, {{0.5, 0.5}, {0.1, 0.9}});
  list.points.AppendAll(data);
  list.f = {0.5, 0.1};
  EXPECT_FALSE(list.IsSorted());
  list.f = {0.1, 0.5};
  EXPECT_TRUE(list.IsSorted());
  list.f = {0.1};
  EXPECT_FALSE(list.IsSorted());  // Not parallel.
}

// --- SkylineAccumulator -------------------------------------------------

TEST(SkylineAccumulator, EvictsDominatedEarlierPoints) {
  // Earlier point with smaller f can still be dominated by a later point.
  ThresholdScanOptions options;
  SkylineAccumulator acc(2, Subspace::FullSpace(2), options);
  const double a[] = {0.1, 0.9};  // f = 0.1
  const double b[] = {0.2, 0.3};  // f = 0.2, incomparable to a
  const double c[] = {0.2, 0.25};  // dominates b (later f? 0.2 == 0.2)
  EXPECT_TRUE(acc.Offer(a, 1, 0.1));
  EXPECT_TRUE(acc.Offer(b, 2, 0.2));
  EXPECT_TRUE(acc.Offer(c, 3, 0.2));
  EXPECT_EQ(acc.alive(), 2u);
  ResultList result = acc.TakeResult();
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{1, 3}));
}

TEST(SkylineAccumulator, ThresholdMonotonicallyDecreases) {
  ThresholdScanOptions options;
  SkylineAccumulator acc(2, Subspace::FullSpace(2), options);
  Rng rng(5);
  double last = acc.threshold();
  for (int i = 0; i < 100; ++i) {
    double p[2] = {rng.Uniform(), rng.Uniform()};
    acc.Offer(p, i, std::min(p[0], p[1]));
    EXPECT_LE(acc.threshold(), last);
    last = acc.threshold();
  }
}

TEST(SkylineAccumulator, ScanMatchesBnlAndSfsOracles) {
  for (Distribution distribution :
       {Distribution::kUniform, Distribution::kAnticorrelated}) {
    for (int dims : {2, 3, 5}) {
      const PointSet data = MakeData(distribution, dims, 500, 11 * dims);
      const ResultList sorted = BuildSortedByF(data);
      std::vector<Subspace> subspaces = {Subspace::FullSpace(dims)};
      if (dims >= 3) {
        subspaces.push_back(Subspace::FromDims({0, 2}));
      }
      for (Subspace u : subspaces) {
        for (bool ext : {false, true}) {
          ThresholdScanOptions options;
          options.ext = ext;
          const std::vector<PointId> scanned =
              SortedIds(SortedSkyline(sorted, u, options).points);
          const std::string context =
              std::string(DistributionName(distribution)) + " d" +
              std::to_string(dims) + " u=" + u.ToString() +
              (ext ? " ext" : "");
          EXPECT_EQ(scanned, SortedIds(BnlSkyline(data, u, ext))) << context;
          EXPECT_EQ(scanned, SortedIds(SfsSkyline(data, u, ext))) << context;
        }
      }
    }
  }
}

TEST(SkylineAccumulator, LargeAnticorrelatedWindowMatchesOracles) {
  // More than a thousand live window entries, so compaction and
  // eviction run many times over on a large window.
  const int dims = 6;
  const PointSet data = MakeData(Distribution::kAnticorrelated, dims, 6000, 61);
  const ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FullSpace(dims);
  ThresholdScanStats stats;
  const ResultList result = SortedSkyline(sorted, u, {}, &stats);
  ASSERT_GT(result.size(), 1000u);
  EXPECT_TRUE(result.IsSorted());
  const std::vector<PointId> scanned = SortedIds(result.points);
  EXPECT_EQ(scanned, SortedIds(BnlSkyline(data, u)));
  EXPECT_EQ(scanned, SortedIds(SfsSkyline(data, u)));
}

// --- exact pre-rejection --------------------------------------------------
//
// A subspace accumulator settles an offer without the kernel when the
// offer's u-minimum exceeds the smallest dist_U of an offer it accepted.
// These cases pin down which thresholds may feed that test.

TEST(SkylineAccumulator, IncomingThresholdDoesNotPreReject) {
  // p's u-minimum (0.5) is above the incoming threshold (0.3), but its f
  // (0.1) is not, and no local point dominates p: p must stay. Feeding
  // the incoming threshold into the pre-rejection would drop it.
  const Subspace u = Subspace::FromDims({0, 1});
  PointSet data(3, {{0.5, 0.6, 0.1},     // f=0.1, min_u=0.5
                    {0.9, 0.2, 0.15}});  // f=0.15, min_u=0.2
  const ResultList sorted = BuildSortedByF(data);
  ThresholdScanOptions options;
  options.initial_threshold = 0.3;
  ThresholdScanStats stats;
  const ResultList result = SortedSkyline(sorted, u, options, &stats);
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{0, 1}));
  EXPECT_EQ(stats.scanned, 2u);
  // Offer 1 meets an empty window; offer 2 one slot, both directions.
  EXPECT_EQ(stats.ops.dominance_tests, 2u);
}

TEST(SkylineAccumulator, FilterSeedsDoNotPreReject) {
  // The seed's f (0.0) is below p's u-minimum (0.5), yet the seed does
  // not dominate p on u (0.95 > 0.6): p must stay. Seeds prune only
  // through the kernel, never through the pre-rejection.
  const Subspace u = Subspace::FromDims({0, 1});
  ResultList filter(3);
  PointSet seed(3, {{0.1, 0.95, 0.0}});
  filter.points.AppendAll(seed);
  filter.f = {0.0};
  PointSet data(3, {{0.5, 0.6, 0.2}});
  const ResultList sorted = BuildSortedByF(data);
  ThresholdScanOptions options;
  options.filter = &filter;
  ThresholdScanStats stats;
  const ResultList result = SortedSkyline(sorted, u, options, &stats);
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{0}));
  // The one offer is tested against the seed both ways.
  EXPECT_EQ(stats.ops.dominance_tests, 2u);
}

TEST(SkylineAccumulator, PreRejectionIsExactInExtMode) {
  const Subspace u = Subspace::FromDims({0, 1});
  ThresholdScanOptions options;
  options.ext = true;
  SkylineAccumulator acc(3, u, options);
  const double t[] = {0.3, 0.3, 0.05};   // dist_U 0.3
  const double tie[] = {0.3, 0.8, 0.1};  // u-minimum == 0.3: not strict
  const double above[] = {0.4, 0.5, 0.2};  // strictly above t on u
  EXPECT_TRUE(acc.Offer(t, 1, 0.05));
  // t does not ext-dominate `tie` (equal first coordinate), and neither
  // may the pre-rejection, whose bound is strict.
  EXPECT_TRUE(acc.Offer(tie, 2, 0.1));
  EXPECT_FALSE(acc.Offer(above, 3, 0.2));
  // Logical window slots per offer: 0, then 1 + 1 (forward and evict
  // passes), then 2 for the pre-rejected offer.
  EXPECT_EQ(acc.ops().dominance_tests, 4u);
  ResultList result = acc.TakeResult();
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{1, 2}));
}

TEST(SkylineAccumulator, PreRejectionStaysExactAfterTheSetterIsEvicted) {
  // t sets the local threshold (0.3), then e evicts t. An offer above the
  // threshold is still rejected — e, t's evictor, dominates it — and an
  // offer below it still reaches the kernel and survives.
  const Subspace u = Subspace::FromDims({0, 1});
  SkylineAccumulator acc(3, u, {});
  const double t[] = {0.3, 0.3, 0.05};
  const double e[] = {0.2, 0.3, 0.1};   // dominates t on u
  const double p[] = {0.4, 0.5, 0.2};   // u-minimum 0.4 > 0.3
  const double q[] = {0.25, 0.1, 0.2};  // incomparable to e
  EXPECT_TRUE(acc.Offer(t, 1, 0.05));
  EXPECT_TRUE(acc.Offer(e, 2, 0.1));
  EXPECT_EQ(acc.alive(), 1u);
  EXPECT_FALSE(acc.Offer(p, 3, 0.2));
  EXPECT_TRUE(acc.Offer(q, 4, 0.2));
  // Window slots: 0; 1 + 1; 2 (t's slot is dead but not compacted);
  // 2 + 2.
  EXPECT_EQ(acc.ops().dominance_tests, 8u);
  ResultList result = acc.TakeResult();
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{2, 4}));
  PointSet offered(3, {{0.3, 0.3, 0.05}, {0.2, 0.3, 0.1}, {0.4, 0.5, 0.2},
                       {0.25, 0.1, 0.2}});
  EXPECT_EQ(ReferenceSkyline(offered, u, /*ext=*/false),
            (std::vector<PointId>{1, 3}));  // ids are 0-based here
}

TEST(SkylineAccumulator, TakeResultResetsState) {
  ThresholdScanOptions options;
  SkylineAccumulator acc(2, Subspace::FullSpace(2), options);
  const double a[] = {0.5, 0.5};
  acc.Offer(a, 1, 0.5);
  ResultList first = acc.TakeResult();
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(acc.alive(), 0u);
  // Note: threshold keeps its tightened value by design; a fresh
  // accumulator is needed for an independent scan.
  ResultList second = acc.TakeResult();
  EXPECT_TRUE(second.empty());
}

// --- Algorithm 2 (merge) ------------------------------------------------

TEST(Merge, TwoListsBasic) {
  PointSet a(2, {{0.1, 0.9}, {0.8, 0.8}});
  PointSet b(2, {{0.9, 0.1}, {0.85, 0.84}});
  // Give b distinct ids.
  PointSet b_ids(2);
  b_ids.Append(b[0], 10);
  b_ids.Append(b[1], 11);
  std::vector<ResultList> lists;
  lists.push_back(BuildSortedByF(a));
  lists.push_back(BuildSortedByF(b_ids));
  ResultList merged = MergeSortedSkylines(lists, Subspace::FullSpace(2));
  // {0.1,0.9} and {0.9,0.1} are incomparable; {0.8,0.8} dominates
  // {0.85,0.84}; nothing dominates {0.8,0.8}.
  EXPECT_EQ(SortedIds(merged.points), (std::vector<PointId>{0, 1, 10}));
  EXPECT_TRUE(merged.IsSorted());
}

TEST(Merge, EquivalentToConcatenatedScan) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const int dims = 3 + trial % 3;
    std::vector<ResultList> lists;
    PointSet all(dims);
    PointId next_id = 0;
    const int num_lists = 1 + trial % 5;
    for (int l = 0; l < num_lists; ++l) {
      PointSet data =
          GenerateUniform(dims, 50 + 20 * l, &rng, next_id);
      next_id += data.size();
      all.AppendAll(data);
      // Lists must themselves be skylines? No — Algorithm 2 only needs
      // f-sorted lists; feed raw sorted data to stress it.
      lists.push_back(BuildSortedByF(data));
    }
    for (Subspace u :
         {Subspace::FullSpace(dims), Subspace::FromDims({0, 1})}) {
      ResultList merged = MergeSortedSkylines(lists, u);
      EXPECT_EQ(SortedIds(merged.points), ReferenceSkyline(all, u, false))
          << "trial " << trial << " u=" << u.ToString();
    }
  }
}

TEST(Merge, ExtMergeMatchesReference) {
  Rng rng(23);
  const int dims = 4;
  std::vector<ResultList> lists;
  PointSet all(dims);
  for (int l = 0; l < 4; ++l) {
    PointSet data = GenerateUniform(dims, 80, &rng, l * 1000);
    all.AppendAll(data);
    lists.push_back(BuildSortedByF(data));
  }
  ThresholdScanOptions options;
  options.ext = true;
  ResultList merged =
      MergeSortedSkylines(lists, Subspace::FullSpace(dims), options);
  EXPECT_EQ(SortedIds(merged.points),
            ReferenceSkyline(all, Subspace::FullSpace(dims), true));
}

TEST(Merge, SingleListEqualsSortedSkyline) {
  PointSet data = MakeData(Distribution::kUniform, 4, 200, 31);
  std::vector<ResultList> lists;
  lists.push_back(BuildSortedByF(data));
  Subspace u = Subspace::FromDims({1, 3});
  EXPECT_EQ(SortedIds(MergeSortedSkylines(lists, u).points),
            SortedIds(SortedSkyline(lists[0], u).points));
}

TEST(Merge, EmptyListsYieldEmptyResult) {
  std::vector<ResultList> lists;
  lists.emplace_back(3);
  lists.emplace_back(3);
  ResultList merged = MergeSortedSkylines(lists, Subspace::FullSpace(3));
  EXPECT_TRUE(merged.empty());
}

TEST(Merge, ZeroListsWithExplicitDimsYieldEmptyResult) {
  // A super-peer drained of every peer merges zero lists; there is no
  // dims source among the inputs, so the explicit-dims overload must
  // return an empty result instead of aborting.
  ThresholdScanOptions options;
  options.initial_threshold = 0.75;
  ThresholdScanStats stats;
  const ResultList merged = MergeSortedSkylines(
      3, std::vector<const ResultList*>{}, Subspace::FullSpace(3), options,
      &stats);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.points.dims(), 3);
  EXPECT_EQ(stats.scanned, 0u);
  EXPECT_EQ(stats.final_threshold, 0.75);

  const ResultList ext_merged = MergeSortedSkylines(
      2, std::vector<ResultList>{}, Subspace::FullSpace(2),
      ThresholdScanOptions{.ext = true});
  EXPECT_TRUE(ext_merged.empty());
  EXPECT_EQ(ext_merged.points.dims(), 2);
}

TEST(Merge, InitialThresholdPrunes) {
  PointSet data(2, {{0.5, 0.5}, {0.7, 0.8}});
  std::vector<ResultList> lists;
  lists.push_back(BuildSortedByF(data));
  ThresholdScanOptions options;
  options.initial_threshold = 0.1;
  ThresholdScanStats stats;
  ResultList merged =
      MergeSortedSkylines(lists, Subspace::FullSpace(2), options, &stats);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(stats.scanned, 0u);
}

// --- window compaction --------------------------------------------------

/// Eviction-heavy input: ascending f (driven by dimension 1) while
/// dimension 0 descends, so on U={0} every offer strictly dominates and
/// evicts all earlier points. Without compaction the window holds every
/// point ever offered with a single survivor.
PointSet EvictionHeavyData(size_t n) {
  PointSet data(2);
  for (size_t i = 0; i < n; ++i) {
    const double row[2] = {1.0 - 0.001 * static_cast<double>(i),
                           0.001 * static_cast<double>(i)};
    data.Append(row, static_cast<PointId>(i));
  }
  return data;
}

TEST(SkylineAccumulator, CompactionKeepsResultsUnchanged) {
  const PointSet data = EvictionHeavyData(300);
  const ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FromDims({0});
  for (bool ext : {false, true}) {
    ThresholdScanOptions options;
    options.ext = ext;
    const ResultList result = SortedSkyline(sorted, u, options);
    EXPECT_EQ(SortedIds(result.points), ReferenceSkyline(data, u, ext))
        << "ext=" << ext;
  }
}

TEST(SkylineAccumulator, CompactionWithInterleavedSurvivors) {
  // Mix the evicting sequence with incomparable survivors so compaction
  // must preserve several alive entries and their f-order, not just a
  // single point.
  Rng rng(91);
  PointSet data(3);
  PointId id = 0;
  for (size_t i = 0; i < 400; ++i) {
    const double t = 0.001 * static_cast<double>(i);
    const double evict_row[3] = {0.9 - t, t, 0.95};
    data.Append(evict_row, id++);
    const double keep_row[3] = {rng.Uniform(), t, 0.1 + 0.5 * rng.Uniform()};
    data.Append(keep_row, id++);
  }
  const ResultList sorted = BuildSortedByF(data);
  for (Subspace u : {Subspace::FromDims({0}), Subspace::FromDims({0, 2}),
                     Subspace::FullSpace(3)}) {
    const ResultList result = SortedSkyline(sorted, u);
    EXPECT_EQ(SortedIds(result.points), ReferenceSkyline(data, u, false))
        << "u=" << u.ToString();
    EXPECT_TRUE(result.IsSorted());
  }
}

// --- cross-algorithm equivalence sweep ----------------------------------

class SkylineEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<Distribution, int, int, bool>> {
 protected:
  Distribution distribution() const { return std::get<0>(GetParam()); }
  int dims() const { return std::get<1>(GetParam()); }
  int n() const { return std::get<2>(GetParam()); }
  bool ext() const { return std::get<3>(GetParam()); }
};

TEST_P(SkylineEquivalenceTest, AllAlgorithmsAgree) {
  PointSet data =
      MakeData(distribution(), dims(), n(), 7919 * dims() + n());
  ResultList sorted = BuildSortedByF(data);
  std::vector<Subspace> subspaces = {Subspace::FullSpace(dims())};
  if (dims() >= 3) {
    subspaces.push_back(Subspace::FromDims({0, 2}));
    subspaces.push_back(Subspace::FromDims({1}));
  }
  for (Subspace u : subspaces) {
    const std::vector<PointId> expected = ReferenceSkyline(data, u, ext());
    EXPECT_EQ(SortedIds(BnlSkyline(data, u, ext())), expected)
        << "BNL " << u.ToString();
    EXPECT_EQ(SortedIds(SfsSkyline(data, u, ext())), expected)
        << "SFS " << u.ToString();
    EXPECT_EQ(SortedIds(DivideConquerSkyline(data, u, ext())), expected)
        << "D&C " << u.ToString();
    ThresholdScanOptions options;
    options.ext = ext();
    EXPECT_EQ(SortedIds(SortedSkyline(sorted, u, options).points), expected)
        << "SortedSkyline " << u.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineEquivalenceTest,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kClustered,
                                         Distribution::kCorrelated,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(2, 4, 6),
                       ::testing::Values(40, 400),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_ext" : "_sky");
    });

// --- traced scans ---------------------------------------------------------

/// Full-content equality: ids, f and coordinates in list order.
void ExpectSameList(const ResultList& actual, const ResultList& expected,
                    const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.points.id(i), expected.points.id(i)) << context;
    EXPECT_EQ(actual.f[i], expected.f[i]) << context;
    for (int d = 0; d < expected.points.dims(); ++d) {
      EXPECT_EQ(actual.points[i][d], expected.points[i][d]) << context;
    }
  }
}

TEST(TracedSortedSkyline, RecordingMatchesPlainScan) {
  // Recording the trace must not perturb the scan itself.
  for (Distribution distribution :
       {Distribution::kUniform, Distribution::kAnticorrelated}) {
    const PointSet data = MakeData(distribution, 4, 500, 909);
    const ResultList sorted = BuildSortedByF(data);
    const Subspace u = Subspace::FromDims({0, 2, 3});
    for (double threshold :
         {std::numeric_limits<double>::infinity(), 1.2, 0.4}) {
      ThresholdScanOptions options;
      options.initial_threshold = threshold;
      ThresholdScanStats plain_stats;
      const ResultList reference =
          SortedSkyline(sorted, u, options, &plain_stats);
      ThresholdScanStats traced_stats;
      ScanTrace trace;
      const ResultList traced =
          TracedSortedSkyline(sorted, u, options, &traced_stats, &trace);
      const std::string context = "threshold=" + std::to_string(threshold);
      ExpectSameList(traced, reference, context);
      EXPECT_EQ(traced_stats.scanned, plain_stats.scanned) << context;
      EXPECT_EQ(traced_stats.final_threshold, plain_stats.final_threshold)
          << context;
      EXPECT_EQ(trace.size(), traced_stats.scanned) << context;
      EXPECT_EQ(trace.threshold_in(), threshold) << context;
    }
  }
}

TEST(ReplayScanTrace, ReproducesTighterScansExactly) {
  // The reconcile guarantee: a trace recorded under a loose threshold
  // replays the scan under ANY tighter threshold bit-identically — same
  // survivors (points evicted past the refined cut must be resurrected),
  // same scan count, same final threshold.
  for (Distribution distribution :
       {Distribution::kUniform, Distribution::kAnticorrelated,
        Distribution::kCorrelated}) {
    const PointSet data = MakeData(distribution, 5, 700, 4242);
    const ResultList sorted = BuildSortedByF(data);
    for (Subspace u : {Subspace::FromDims({0, 1, 4}),
                       Subspace::FromDims({2}), Subspace::FullSpace(5)}) {
      ThresholdScanOptions fixed_options;
      ThresholdScanStats fixed_stats;
      ScanTrace trace;
      TracedSortedSkyline(sorted, u, fixed_options, &fixed_stats, &trace);
      // Refine across the whole useful range, including the fixed
      // threshold itself and values far below it.
      std::vector<double> refined = {trace.threshold_in(),
                                     fixed_stats.final_threshold};
      for (double fraction : {0.9, 0.6, 0.3, 0.1, 0.01}) {
        refined.push_back(fixed_stats.final_threshold * fraction);
      }
      for (double threshold : refined) {
        ThresholdScanOptions options;
        options.initial_threshold = threshold;
        ThresholdScanStats seq_stats;
        const ResultList reference =
            SortedSkyline(sorted, u, options, &seq_stats);
        ThresholdScanStats replay_stats;
        const ResultList replayed =
            ReplayScanTrace(sorted, trace, threshold, &replay_stats);
        const std::string context =
            std::string(DistributionName(distribution)) + " u=" +
            u.ToString() + " t=" + std::to_string(threshold);
        ExpectSameList(replayed, reference, context);
        EXPECT_EQ(replay_stats.scanned, seq_stats.scanned) << context;
        EXPECT_EQ(replay_stats.final_threshold, seq_stats.final_threshold)
            << context;
      }
    }
  }
}

TEST(ReplayScanTrace, TraceRecordedUnderFiniteThresholdReplays) {
  // Traces can themselves start from a finite threshold (an RT*M node's
  // speculative scan under the initiator's fixed value).
  const PointSet data = MakeData(Distribution::kUniform, 3, 400, 71);
  const ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FromDims({0, 1});
  ThresholdScanOptions fixed_options;
  fixed_options.initial_threshold = 0.9;
  ScanTrace trace;
  ThresholdScanStats fixed_stats;
  TracedSortedSkyline(sorted, u, fixed_options, &fixed_stats, &trace);
  for (double threshold : {0.9, 0.7, 0.35, 0.05}) {
    ThresholdScanOptions options;
    options.initial_threshold = threshold;
    ThresholdScanStats seq_stats;
    const ResultList reference = SortedSkyline(sorted, u, options, &seq_stats);
    ThresholdScanStats replay_stats;
    const ResultList replayed =
        ReplayScanTrace(sorted, trace, threshold, &replay_stats);
    ExpectSameList(replayed, reference, "t=" + std::to_string(threshold));
    EXPECT_EQ(replay_stats.scanned, seq_stats.scanned);
    EXPECT_EQ(replay_stats.final_threshold, seq_stats.final_threshold);
  }
}

// Ties are where skyline algorithms usually break: duplicate coordinates
// from a coarse grid.
TEST(SkylineEquivalence, GriddedDataWithManyTies) {
  Rng rng(555);
  PointSet data(3);
  for (int i = 0; i < 300; ++i) {
    double row[3];
    for (int d = 0; d < 3; ++d) {
      row[d] = rng.UniformInt(0, 3) / 4.0;
    }
    data.Append(row, i);
  }
  ResultList sorted = BuildSortedByF(data);
  for (Subspace u : AllSubspaces(3)) {
    for (bool ext : {false, true}) {
      const std::vector<PointId> expected = ReferenceSkyline(data, u, ext);
      EXPECT_EQ(SortedIds(BnlSkyline(data, u, ext)), expected);
      EXPECT_EQ(SortedIds(SfsSkyline(data, u, ext)), expected);
      EXPECT_EQ(SortedIds(DivideConquerSkyline(data, u, ext)), expected);
      ThresholdScanOptions options;
      options.ext = ext;
      EXPECT_EQ(SortedIds(SortedSkyline(sorted, u, options).points),
                expected);
    }
  }
}

}  // namespace
}  // namespace skypeer
