// A tour of every skyline-family operator in the library on one small
// hotel-style dataset: skyline, extended skyline, k-skyband, top-k
// dominating, constrained skyline and the cluster-anchored index — all
// computing over the same points so their relationships are visible side
// by side.
//
//   $ ./operator_gallery

#include <cstdio>

#include "skypeer/algo/anchored_skyline.h"
#include "skypeer/algo/bnl.h"
#include "skypeer/algo/constrained.h"
#include "skypeer/algo/extended_skyline.h"
#include "skypeer/algo/skyband.h"
#include "skypeer/algo/top_k_dominating.h"
#include "skypeer/common/rng.h"

int main() {
  using namespace skypeer;

  // Hotels: (price, distance) on a coarse grid so ties exist — the
  // regime where skyline subtleties show.
  Rng rng(99);
  PointSet hotels(2);
  for (int i = 0; i < 400; ++i) {
    double row[2] = {rng.UniformInt(0, 9) / 10.0,
                     rng.UniformInt(0, 9) / 10.0};
    hotels.Append(row, i);
  }
  const Subspace u = Subspace::FullSpace(2);
  std::printf("dataset: %zu hotels (price, distance), 10x10 grid\n\n",
              hotels.size());

  const PointSet skyline = BnlSkyline(hotels, u);
  std::printf("skyline:            %3zu hotels (no hotel cheaper AND "
              "closer)\n",
              skyline.size());

  const ResultList ext = ExtendedSkyline(hotels);
  std::printf("extended skyline:   %3zu hotels (additionally everything "
              "tying a winner;\n"
              "                        answers ANY subspace query "
              "losslessly)\n",
              ext.size());

  const PointSet band2 = KSkyband(hotels, u, 2);
  const PointSet band5 = KSkyband(hotels, u, 5);
  std::printf("2-skyband:          %3zu hotels (beaten by at most one)\n",
              band2.size());
  std::printf("5-skyband:          %3zu hotels (beaten by at most four)\n",
              band5.size());

  const auto top3 = TopKDominating(hotels, u, 3);
  std::printf("top-3 dominating:\n");
  for (const DominatingPoint& p : top3) {
    std::printf("                    hotel-%llu beats %zu others\n",
                static_cast<unsigned long long>(p.id), p.score);
  }

  RangeConstraint midrange;
  midrange.dims = Subspace::FromDims({0});
  midrange.lo = {0.3};
  midrange.hi = {0.6};
  const PointSet constrained = ConstrainedSkyline(hotels, u, midrange);
  std::printf("constrained:        %3zu hotels (best among price in "
              "[0.3, 0.6])\n",
              constrained.size());

  AnchoredSkylineIndex::Options anchored_options;
  anchored_options.num_anchors = 4;
  AnchoredSkylineIndex index(hotels, anchored_options);
  ThresholdScanStats anchored_stats;
  const PointSet anchored = index.Query(u, &anchored_stats);
  std::printf("anchored index:     %3zu hotels scanning %zu of %zu "
              "points\n",
              anchored.size(), anchored_stats.scanned, hotels.size());

  // All exact-skyline methods agree.
  if (skyline.size() != anchored.size()) {
    std::printf("\nMISMATCH between exact methods!\n");
    return 1;
  }
  std::printf("\nskyline == anchored query; every other operator is a\n"
              "superset (skybands, ext) or a re-ranking (top-k, "
              "constrained).\n");
  return 0;
}
