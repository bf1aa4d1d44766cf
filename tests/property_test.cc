// Randomized cross-invariant property tests tying the library's pieces
// together: algebraic laws of skyline/ext-skyline computation, the
// threshold-filter equivalence behind the result cache, and the
// distribution theorem behind SKYPEER itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/extended_skyline.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/sfs.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/mapping.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"
#include "skypeer/data/partition.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

PointSet RandomData(int dims, size_t n, uint64_t seed, bool gridded) {
  Rng rng(seed);
  if (!gridded) {
    return GenerateUniform(dims, n, &rng);
  }
  PointSet data(dims);
  for (size_t i = 0; i < n; ++i) {
    double row[kMaxDims];
    for (int d = 0; d < dims; ++d) {
      row[d] = rng.UniformInt(0, 5) / 6.0;
    }
    data.Append(row, i);
  }
  return data;
}

class PropertyTest : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  int dims() const { return std::get<0>(GetParam()); }
  bool gridded() const { return std::get<1>(GetParam()); }
};

// ext(ext(S)) == ext(S): the extended skyline is idempotent.
TEST_P(PropertyTest, ExtSkylineIdempotent) {
  PointSet data = RandomData(dims(), 400, 11 * dims(), gridded());
  ResultList once = ExtendedSkyline(data);
  ResultList twice = ExtendedSkyline(once.points);
  EXPECT_EQ(SortedIds(once.points), SortedIds(twice.points));
}

// SKY(ext(S)) == SKY(S): computing the skyline over the extended skyline
// loses nothing — the foundation of querying super-peer stores.
TEST_P(PropertyTest, SkylineOfExtSkylineIsSkyline) {
  PointSet data = RandomData(dims(), 400, 13 * dims(), gridded());
  ResultList ext = ExtendedSkyline(data);
  for (Subspace u : SubspacesOfSize(dims(), std::max(1, dims() - 2))) {
    EXPECT_EQ(SortedIds(BnlSkyline(ext.points, u)),
              SortedIds(BnlSkyline(data, u)))
        << u.ToString();
  }
}

// Merge is associative: merge(merge(A,B),C) == merge(A,B,C).
TEST_P(PropertyTest, MergeAssociative) {
  std::vector<ResultList> lists;
  for (int l = 0; l < 3; ++l) {
    lists.push_back(
        BuildSortedByF(RandomData(dims(), 120, 100 * l + dims(), gridded())));
  }
  const Subspace u = Subspace::FullSpace(dims());
  ResultList ab = MergeSortedSkylines(
      std::vector<const ResultList*>{&lists[0], &lists[1]}, u);
  ResultList ab_c = MergeSortedSkylines(
      std::vector<const ResultList*>{&ab, &lists[2]}, u);
  ResultList abc = MergeSortedSkylines(lists, u);
  EXPECT_EQ(SortedIds(ab_c.points), SortedIds(abc.points));
}

// The distribution theorem: the skyline of a horizontally partitioned
// dataset is the merge of the partition skylines.
TEST_P(PropertyTest, DistributionTheorem) {
  PointSet all = RandomData(dims(), 600, 17 * dims(), gridded());
  Rng rng(3);
  const auto parts = PartitionShuffled(all, 7, &rng);
  for (Subspace u :
       {Subspace::FullSpace(dims()), Subspace::FromDims({0, dims() - 1})}) {
    std::vector<ResultList> locals;
    for (const PointSet& part : parts) {
      locals.push_back(BuildSortedByF(SfsSkyline(part, u)));
    }
    EXPECT_EQ(SortedIds(MergeSortedSkylines(locals, u).points),
              SortedIds(SfsSkyline(all, u)))
        << u.ToString();
  }
}

// Threshold-filter equivalence (the cache's correctness argument): a
// scan under initial threshold t equals the unconstrained scan filtered
// in f-order with an evolving threshold.
TEST_P(PropertyTest, ThresholdFilterEquivalence) {
  PointSet data = RandomData(dims(), 500, 19 * dims(), gridded());
  ResultList sorted = BuildSortedByF(data);
  Rng rng(5);
  for (Subspace u :
       {Subspace::FullSpace(dims()), Subspace::FromDims({0, 1})}) {
    ResultList full = SortedSkyline(sorted, u);
    for (int trial = 0; trial < 10; ++trial) {
      const double t = rng.Uniform();
      ThresholdScanOptions options;
      options.initial_threshold = t;
      ResultList scanned = SortedSkyline(sorted, u, options);

      // Filter the unconstrained result.
      std::vector<PointId> filtered;
      double threshold = t;
      for (size_t i = 0; i < full.size(); ++i) {
        if (full.f[i] > threshold) {
          break;
        }
        filtered.push_back(full.points.id(i));
        threshold = std::min(threshold, DistU(full.points[i], u));
      }
      std::sort(filtered.begin(), filtered.end());
      EXPECT_EQ(SortedIds(scanned.points), filtered)
          << "t=" << t << " u=" << u.ToString();
    }
  }
}

// Scan results are insensitive to input order among equal-f points and
// agree with the BNL and SFS oracles.
TEST_P(PropertyTest, ScanOrderInsensitive) {
  PointSet data = RandomData(dims(), 300, 23 * dims(), gridded());
  ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FullSpace(dims());
  const auto a = SortedIds(SortedSkyline(sorted, u).points);
  EXPECT_EQ(a, SortedIds(BnlSkyline(data, u)));
  EXPECT_EQ(a, SortedIds(SfsSkyline(data, u)));

  // Shuffle the raw input; BuildSortedByF re-sorts (stable), results match.
  Rng rng(7);
  PointSet shuffled(data.dims());
  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::shuffle(order.begin(), order.end(), rng.engine());
  for (size_t i : order) {
    shuffled.AppendFrom(data, i);
  }
  const auto c =
      SortedIds(SortedSkyline(BuildSortedByF(shuffled), u).points);
  EXPECT_EQ(a, c);
}

// Thresholds reported by the scan are achievable: every reported final
// threshold equals min(initial, min dist_U over the result).
TEST_P(PropertyTest, FinalThresholdIsTight) {
  PointSet data = RandomData(dims(), 200, 29 * dims(), gridded());
  ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FullSpace(dims());
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const double t = 0.2 + rng.Uniform();
    ThresholdScanOptions options;
    options.initial_threshold = t;
    ThresholdScanStats stats;
    ResultList result = SortedSkyline(sorted, u, options, &stats);
    double expected = t;
    for (size_t i = 0; i < result.size(); ++i) {
      expected = std::min(expected, DistU(result.points[i], u));
    }
    EXPECT_DOUBLE_EQ(stats.final_threshold, expected);
  }
}

// Exhaustive two-point dominance orderings: for every per-dimension
// relation pattern in {p<q, p==q, p>q}^k (k up to 4, so 3^4 = 81 patterns)
// embedded at random dimension positions of a larger space,
// Dominates/ExtDominates/CompareDominance must agree with the
// ground truth derived from the pattern and with each other — pinning the
// early-exit in CompareDominance against the two boolean predicates.
// Equal-coordinate patterns are included (a point never dominates itself).
TEST(CompareDominanceTest, ExhaustiveTwoPointOrderings) {
  Rng rng(41);
  for (int k = 1; k <= 4; ++k) {
    int combos = 1;
    for (int i = 0; i < k; ++i) {
      combos *= 3;
    }
    for (int combo = 0; combo < combos; ++combo) {
      // Random embedding: k relation-carrying dimensions inside a larger
      // space; the remaining dimensions get random values that must not
      // affect any subspace-u outcome.
      const int dims = k + static_cast<int>(rng.UniformInt(0, 4));
      std::vector<int> all_dims(dims);
      for (int d = 0; d < dims; ++d) {
        all_dims[d] = d;
      }
      std::shuffle(all_dims.begin(), all_dims.end(), rng.engine());
      std::vector<int> u_dims(all_dims.begin(), all_dims.begin() + k);
      const Subspace u = Subspace::FromDims(u_dims);

      double p[kMaxDims];
      double q[kMaxDims];
      for (int d = 0; d < dims; ++d) {
        p[d] = rng.Uniform();
        q[d] = rng.Uniform();
      }
      bool any_lt = false;
      bool any_gt = false;
      bool all_lt = true;
      bool all_gt = true;
      int digits = combo;
      for (int j = 0; j < k; ++j) {
        const int rel = digits % 3;
        digits /= 3;
        const int d = u_dims[j];
        const double base = rng.Uniform();
        if (rel == 0) {  // p < q on d
          p[d] = base;
          q[d] = base + 0.5;
          any_lt = true;
          all_gt = false;
        } else if (rel == 1) {  // p == q on d
          p[d] = base;
          q[d] = base;
          all_lt = false;
          all_gt = false;
        } else {  // p > q on d
          p[d] = base + 0.5;
          q[d] = base;
          any_gt = true;
          all_lt = false;
        }
      }
      const bool expect_p_dom = any_lt && !any_gt;
      const bool expect_q_dom = any_gt && !any_lt;
      EXPECT_EQ(Dominates(p, q, u), expect_p_dom) << u.ToString();
      EXPECT_EQ(Dominates(q, p, u), expect_q_dom) << u.ToString();
      EXPECT_EQ(ExtDominates(p, q, u), all_lt) << u.ToString();
      EXPECT_EQ(ExtDominates(q, p, u), all_gt) << u.ToString();

      const DomRelation rel = CompareDominance(p, q, u);
      const DomRelation rev = CompareDominance(q, p, u);
      const DomRelation expect_rel =
          expect_p_dom ? DomRelation::kPDominatesQ
                       : (expect_q_dom ? DomRelation::kQDominatesP
                                       : DomRelation::kIncomparable);
      const DomRelation expect_rev =
          expect_q_dom ? DomRelation::kPDominatesQ
                       : (expect_p_dom ? DomRelation::kQDominatesP
                                       : DomRelation::kIncomparable);
      EXPECT_EQ(rel, expect_rel) << u.ToString();
      EXPECT_EQ(rev, expect_rev) << u.ToString();

      // Ext-dominance implies dominance (on non-equal points), and each
      // point trivially never dominates itself.
      if (all_lt) {
        EXPECT_TRUE(Dominates(p, q, u));
      }
      EXPECT_FALSE(Dominates(p, p, u));
      EXPECT_FALSE(ExtDominates(p, p, u));
      EXPECT_EQ(CompareDominance(p, p, u), DomRelation::kIncomparable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertyTest,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8),
                                            ::testing::Bool()),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(std::get<0>(info.param));
                           name += std::get<1>(info.param) ? "_grid" : "_cont";
                           return name;
                         });

}  // namespace
}  // namespace skypeer
