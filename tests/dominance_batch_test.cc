// Equivalence suite for the batched dominance kernels: every batched
// result must match the scalar dominance.h predicates lane by lane, for
// both the forced-scalar and the runtime-dispatched implementation, on
// sizes that exercise partial final blocks and killed lanes. BNL, which
// runs on these kernels, must match the classic per-pair loop exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/sfs.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/paged_store.h"

namespace skypeer {
namespace {

/// Restores runtime dispatch when a test that forced the scalar path exits.
struct ScopedKernelMode {
  explicit ScopedKernelMode(bool force_scalar) {
    SetForceScalarKernels(force_scalar);
  }
  ~ScopedKernelMode() { SetForceScalarKernels(false); }
};

/// Gridded coordinates make equal values (and thus tie-sensitive lanes)
/// common; continuous coordinates exercise the generic ordering.
PointSet RandomPoints(int k, size_t n, uint64_t seed, bool gridded) {
  Rng rng(seed);
  PointSet data(k);
  for (size_t i = 0; i < n; ++i) {
    double row[kMaxDims];
    for (int d = 0; d < k; ++d) {
      row[d] = gridded ? rng.UniformInt(0, 3) / 4.0 : rng.Uniform();
    }
    data.Append(row, i);
  }
  return data;
}

constexpr int kDimSweep[] = {1, 2, 3, 5, 8, 13};
constexpr size_t kSizeSweep[] = {0, 1, 5, 7, 8, 9, 16, 33, 100};

class KernelEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  bool force_scalar() const { return GetParam(); }
};

TEST_P(KernelEquivalenceTest, BlockedMatchesScalarLaneByLane) {
  ScopedKernelMode mode(force_scalar());
  for (int k : kDimSweep) {
    const Subspace full = Subspace::FullSpace(k);
    for (size_t n : kSizeSweep) {
      for (bool gridded : {false, true}) {
        const uint64_t seed = 1000 * k + 10 * n + gridded;
        PointSet window = RandomPoints(k, n, seed, gridded);
        BlockedProjection blocked(k);
        for (size_t i = 0; i < n; ++i) {
          blocked.Append(window[i]);
        }
        ASSERT_EQ(blocked.size(), n);

        PointSet queries = RandomPoints(k, 32, seed ^ 0xabcd, gridded);
        std::vector<uint8_t> masks(blocked.num_blocks());
        std::vector<uint8_t> flags(n);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const double* q = queries[qi];
          for (bool strict : {false, true}) {
            // Forward: does any window point dominate q?
            bool expect_any = false;
            for (size_t i = 0; i < n; ++i) {
              expect_any =
                  expect_any || (strict ? ExtDominates(window[i], q, full)
                                        : Dominates(window[i], q, full));
            }
            EXPECT_EQ(AnyDominates(blocked, q, strict), expect_any)
                << "k=" << k << " n=" << n << " strict=" << strict;
            EXPECT_EQ(AnyDominatesRows(window.values().data(),
                                       static_cast<size_t>(k), n, k, q,
                                       strict),
                      expect_any);

            // Reverse: which window points does q dominate?
            DominatedMask(blocked, q, strict, masks.data());
            DominatedFlagsRows(window.values().data(), static_cast<size_t>(k),
                               n, k, q, strict, flags.data());
            for (size_t i = 0; i < n; ++i) {
              const bool expect = strict ? ExtDominates(q, window[i], full)
                                         : Dominates(q, window[i], full);
              EXPECT_EQ((masks[i / kDomBlockWidth] >> (i % kDomBlockWidth)) & 1,
                        expect ? 1 : 0)
                  << "k=" << k << " n=" << n << " i=" << i
                  << " strict=" << strict;
              EXPECT_EQ(flags[i] != 0, expect);
            }
            // Padding bits past size() must be clear.
            if (n % kDomBlockWidth != 0 && !masks.empty()) {
              EXPECT_EQ(masks.back() >> (n % kDomBlockWidth), 0);
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, KilledLanesNeverDominate) {
  ScopedKernelMode mode(force_scalar());
  for (int k : {2, 5}) {
    const Subspace full = Subspace::FullSpace(k);
    const size_t n = 21;
    PointSet window = RandomPoints(k, n, 7 * k, /*gridded=*/true);
    BlockedProjection blocked(k);
    for (size_t i = 0; i < n; ++i) {
      blocked.Append(window[i]);
    }
    // Kill every third entry; the survivors alone define forward results.
    std::vector<bool> alive(n, true);
    for (size_t i = 0; i < n; i += 3) {
      blocked.Kill(i);
      alive[i] = false;
    }
    PointSet queries = RandomPoints(k, 16, 99 * k, /*gridded=*/true);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const double* q = queries[qi];
      for (bool strict : {false, true}) {
        bool expect_any = false;
        for (size_t i = 0; i < n; ++i) {
          if (alive[i]) {
            expect_any =
                expect_any || (strict ? ExtDominates(window[i], q, full)
                                      : Dominates(window[i], q, full));
          }
        }
        EXPECT_EQ(AnyDominates(blocked, q, strict), expect_any);
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, FirstDominatorMatchesScalarSearch) {
  ScopedKernelMode mode(force_scalar());
  for (int k : kDimSweep) {
    const Subspace full = Subspace::FullSpace(k);
    for (size_t n : kSizeSweep) {
      for (bool gridded : {false, true}) {
        for (bool kill : {false, true}) {
          const uint64_t seed = 3000 * k + 10 * n + gridded;
          PointSet window = RandomPoints(k, n, seed, gridded);
          BlockedProjection blocked(k);
          for (size_t i = 0; i < n; ++i) {
            blocked.Append(window[i]);
          }
          std::vector<bool> alive(n, true);
          if (kill) {
            for (size_t i = 1; i < n; i += 3) {
              blocked.Kill(i);
              alive[i] = false;
            }
          }
          // Random queries, plus every window point itself (a hit at or
          // before its own lane under non-strict dominance when raised).
          PointSet queries = RandomPoints(k, 24, seed ^ 0x5eed, gridded);
          for (size_t i = 0; i < n; ++i) {
            double raised[kMaxDims];
            for (int d = 0; d < k; ++d) {
              raised[d] = window[i][d] + (d == 0 ? 0.125 : 0.0);
            }
            queries.Append(window[i], 0);
            queries.Append(raised, 0);
          }
          for (size_t qi = 0; qi < queries.size(); ++qi) {
            const double* q = queries[qi];
            for (bool strict : {false, true}) {
              size_t expect = n;
              for (size_t i = 0; i < n && expect == n; ++i) {
                if (alive[i] && (strict ? ExtDominates(window[i], q, full)
                                        : Dominates(window[i], q, full))) {
                  expect = i;
                }
              }
              const size_t got = FirstDominator(blocked, q, strict);
              EXPECT_EQ(got, expect) << "k=" << k << " n=" << n
                                     << " kill=" << kill
                                     << " strict=" << strict;
              EXPECT_EQ(AnyDominates(blocked, q, strict),
                        got < blocked.size());
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, BatchMinCoordBitwiseEqual) {
  ScopedKernelMode mode(force_scalar());
  for (int dims : kDimSweep) {
    for (size_t n : kSizeSweep) {
      PointSet data = RandomPoints(dims, n, 31 * dims + n, /*gridded=*/false);
      std::vector<double> batched(n);
      BatchMinCoord(data.values().data(), n, dims, batched.data());
      for (size_t i = 0; i < n; ++i) {
        const double expect = MinCoord(data[i], dims);
        // Bitwise equality, not just numeric: f-values feed sort keys and
        // thresholds that must not depend on the kernel path.
        EXPECT_EQ(batched[i], expect) << "dims=" << dims << " i=" << i;
      }
    }
  }
}

// The classic per-pair BNL loop, kept here as the reference the blocked
// window must reproduce: for each window entry in order, test "entry
// dominates p" (stop when it does), then "p dominates entry" (evict).
PointSet PerPairBnl(const PointSet& input, Subspace u, bool ext,
                    uint64_t* tests) {
  std::vector<size_t> window;
  for (size_t i = 0; i < input.size(); ++i) {
    const double* p = input[i];
    bool dominated = false;
    size_t kept = 0;
    for (size_t w = 0; w < window.size(); ++w) {
      const double* q = input[window[w]];
      ++*tests;
      if (ext ? ExtDominates(q, p, u) : Dominates(q, p, u)) {
        dominated = true;
        for (; w < window.size(); ++w) {
          window[kept++] = window[w];
        }
        break;
      }
      ++*tests;
      if (ext ? ExtDominates(p, q, u) : Dominates(p, q, u)) {
        continue;
      }
      window[kept++] = window[w];
    }
    window.resize(kept);
    if (!dominated) {
      window.push_back(i);
    }
  }
  PointSet result(input.dims());
  for (size_t i : window) {
    result.AppendFrom(input, i);
  }
  return result;
}

/// BNL inputs: uniform, anti-correlated and gridded (tie-heavy) data, each
/// with duplicated points appended, plus an ascending-quality stream in
/// which nearly every point evicts its predecessors, so evicted slots
/// pile up past the window's compaction size.
std::vector<std::pair<std::string, PointSet>> BnlInputs(int dims) {
  std::vector<std::pair<std::string, PointSet>> inputs;
  Rng rng(40 + dims);
  inputs.emplace_back("uniform", GenerateUniform(dims, 700, &rng));
  inputs.emplace_back("anticorrelated",
                      GenerateAnticorrelated(dims, 900, &rng));
  inputs.emplace_back("gridded", RandomPoints(dims, 600, 90 + dims, true));
  for (auto& [name, data] : inputs) {
    const size_t n = data.size();
    for (size_t i = 0; i < n; i += 7) {
      data.Append(data[i], static_cast<PointId>(n + i));
    }
  }
  // Sorted by descending coordinate sum: later points tend to dominate
  // many earlier candidates.
  PointSet shuffled = GenerateUniform(dims, 900, &rng);
  std::vector<size_t> order(shuffled.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const auto sum = [&](size_t i) {
    double total = 0.0;
    for (int d = 0; d < dims; ++d) {
      total += shuffled[i][d];
    }
    return total;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return sum(a) > sum(b); });
  shuffled.Permute(order);
  inputs.emplace_back("descending-sum", std::move(shuffled));
  return inputs;
}

void ExpectSamePoints(const PointSet& got, const PointSet& expect,
                      const std::string& context) {
  EXPECT_EQ(got.Ids(), expect.Ids()) << context;
  EXPECT_EQ(got.values(), expect.values()) << context;
}

TEST_P(KernelEquivalenceTest, BnlMatchesPerPairLoop) {
  ScopedKernelMode mode(force_scalar());
  for (int dims : {1, 2, 4, 6}) {
    for (const auto& [name, data] : BnlInputs(dims)) {
      for (int k = 1; k <= dims; ++k) {
        // The first k dimensions, and the last k.
        std::vector<int> head(static_cast<size_t>(k));
        std::iota(head.begin(), head.end(), 0);
        std::vector<int> tail(static_cast<size_t>(k));
        std::iota(tail.begin(), tail.end(), dims - k);
        for (Subspace u :
             {Subspace::FromDims(head), Subspace::FromDims(tail)}) {
          for (bool ext : {false, true}) {
            const std::string context = name + " d" + std::to_string(dims) +
                                        " u=" + u.ToString() +
                                        (ext ? " ext" : "");
            uint64_t ref_tests = 0;
            const PointSet expect = PerPairBnl(data, u, ext, &ref_tests);
            OpCounts ops;
            ExpectSamePoints(BnlSkyline(data, u, ext, &ops), expect, context);
            EXPECT_EQ(ops.dominance_tests, ref_tests) << context;
            EXPECT_EQ(ops.scan_steps, data.size()) << context;

            // Store views run on the f-sorted store, resident and paged.
            const ResultList sorted = BuildSortedByF(data);
            uint64_t store_tests = 0;
            const PointSet store_expect =
                PerPairBnl(sorted.points, u, ext, &store_tests);
            const size_t page_size = 4096;
            OpCounts expect_ops;
            expect_ops.dominance_tests = store_tests;
            expect_ops.scan_steps = sorted.size();
            ChargeScanPages(PageLayout(page_size, dims), sorted.size(),
                            sorted.size(), &expect_ops);
            OpCounts resident_ops;
            ExpectSamePoints(
                BnlSkylineView(StoreView(&sorted, page_size), u, ext,
                               &resident_ops),
                store_expect, context + " resident");
            EXPECT_TRUE(resident_ops == expect_ops)
                << context << "\n  got:    " << resident_ops.ToString()
                << "\n  expect: " << expect_ops.ToString();
            BufferManager buffer(page_size, 4, ThreadPool::Global());
            const PagedStore paged = PagedStore::Build(sorted, &buffer);
            OpCounts paged_ops;
            ExpectSamePoints(
                BnlSkylineView(StoreView(&paged), u, ext, &paged_ops),
                store_expect, context + " paged");
            EXPECT_TRUE(paged_ops == expect_ops)
                << context << "\n  got:    " << paged_ops.ToString()
                << "\n  expect: " << expect_ops.ToString();
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelEquivalenceTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "forced_scalar" : "dispatched";
                         });

TEST(BlockedProjectionTest, AppendRowRoundTripAndBookkeeping) {
  BlockedProjection blocked(3);
  EXPECT_TRUE(blocked.empty());
  EXPECT_EQ(blocked.num_blocks(), 0u);
  PointSet data = RandomPoints(3, 19, 5, /*gridded=*/false);
  for (size_t i = 0; i < data.size(); ++i) {
    blocked.Append(data[i]);
  }
  EXPECT_EQ(blocked.size(), 19u);
  EXPECT_EQ(blocked.num_blocks(), 3u);
  double row[3];
  for (size_t i = 0; i < data.size(); ++i) {
    blocked.Row(i, row);
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(row[d], data[i][d]);
    }
  }
  blocked.Kill(4);
  blocked.Row(4, row);
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(std::isinf(row[d]));
  }
  blocked.Clear();
  EXPECT_TRUE(blocked.empty());
  EXPECT_EQ(blocked.num_blocks(), 0u);
}

TEST(KernelDispatchTest, ForceScalarPinsTheMode) {
  const DomKernelMode detected = ActiveDomKernelMode();
  EXPECT_STRNE(DomKernelModeName(detected), "unknown");
  SetForceScalarKernels(true);
  EXPECT_EQ(ActiveDomKernelMode(), DomKernelMode::kScalar);
  SetForceScalarKernels(false);
  EXPECT_EQ(ActiveDomKernelMode(), detected);
}

// A pathological evict-heavy stream — every offer dominates and evicts the
// previous survivor, so one point is alive while the window accretes dead
// slots — must stay bounded by the compaction policy, including a custom
// tighter `compact_min_window`. The survivor must be the one the BNL and
// SFS oracles find in the offered stream.
TEST(AccumulatorCompactionTest, EvictHeavyStreamKeepsWindowBounded) {
  const size_t kOffers = 4000;
  PointSet offered(2);
  for (size_t i = 0; i < kOffers; ++i) {
    // Constant first coordinate keeps f = min coord non-decreasing; the
    // strictly shrinking second coordinate means each point dominates
    // (and evicts) its predecessor.
    const double p[2] = {0.25, 1.0 - static_cast<double>(i) / 8000.0};
    offered.Append(p, i);
  }
  const Subspace u = Subspace::FullSpace(2);
  const std::vector<PointId> bnl = BnlSkyline(offered, u).Ids();
  ASSERT_EQ(bnl, SfsSkyline(offered, u).Ids());
  for (size_t min_window : {size_t{64}, size_t{16}}) {
    ThresholdScanOptions options;
    options.compact_min_window = min_window;
    SkylineAccumulator accumulator(2, u, options);
    size_t max_window = 0;
    for (size_t i = 0; i < kOffers; ++i) {
      EXPECT_TRUE(accumulator.Offer(offered[i], i, 0.25));
      max_window = std::max(max_window, accumulator.window_size());
      EXPECT_EQ(accumulator.alive(), 1u);
    }
    // alive == 1 < fraction * size triggers compaction as soon as the
    // window reaches `min_window`, so it can never exceed it.
    EXPECT_LE(max_window, min_window) << "min_window=" << min_window;
    ResultList result = accumulator.TakeResult();
    EXPECT_EQ(result.points.Ids(), bnl);
  }
}

// The compaction policy defaults reproduce the historical rule exactly, so
// scan results and stats must not depend on the thresholds chosen — only
// the window footprint does.
TEST(AccumulatorCompactionTest, PolicyDoesNotChangeResults) {
  PointSet data = RandomPoints(4, 600, 77, /*gridded=*/true);
  ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FullSpace(4);
  ThresholdScanOptions defaults;
  ThresholdScanStats default_stats;
  ResultList expect = SortedSkyline(sorted, u, defaults, &default_stats);
  for (size_t min_window : {size_t{4}, size_t{16}, size_t{1000000}}) {
    for (double fraction : {0.25, 0.5, 0.9}) {
      ThresholdScanOptions options;
      options.compact_min_window = min_window;
      options.compact_live_fraction = fraction;
      ThresholdScanStats stats;
      ResultList got = SortedSkyline(sorted, u, options, &stats);
      EXPECT_EQ(got.points.Ids(), expect.points.Ids());
      EXPECT_EQ(got.f, expect.f);
      EXPECT_EQ(stats.scanned, default_stats.scanned);
      EXPECT_EQ(stats.final_threshold, default_stats.final_threshold);
    }
  }
}

// End-to-end scan bit-identity between the forced-scalar and dispatched
// kernels, and agreement of both with the BNL and SFS oracles.
TEST(KernelDispatchTest, SortedSkylineBitIdenticalAcrossModes) {
  for (int dims : {2, 4, 8}) {
    PointSet data = RandomPoints(dims, 800, 13 * dims, /*gridded=*/true);
    const Subspace u = Subspace::FullSpace(dims);
    ResultList scalar_result(dims);
    ThresholdScanStats scalar_stats;
    {
      ScopedKernelMode mode(/*force_scalar=*/true);
      ResultList sorted = BuildSortedByF(data);
      scalar_result = SortedSkyline(sorted, u, {}, &scalar_stats);
    }
    ResultList dispatched_result(dims);
    ThresholdScanStats dispatched_stats;
    {
      ScopedKernelMode mode(/*force_scalar=*/false);
      ResultList sorted = BuildSortedByF(data);
      dispatched_result = SortedSkyline(sorted, u, {}, &dispatched_stats);
    }
    EXPECT_EQ(scalar_result.points.Ids(), dispatched_result.points.Ids());
    EXPECT_EQ(scalar_result.f, dispatched_result.f);
    EXPECT_EQ(scalar_result.points.values(),
              dispatched_result.points.values());
    EXPECT_EQ(scalar_stats.scanned, dispatched_stats.scanned);
    EXPECT_EQ(scalar_stats.final_threshold, dispatched_stats.final_threshold);

    std::vector<PointId> ids = dispatched_result.points.Ids();
    std::sort(ids.begin(), ids.end());
    std::vector<PointId> bnl = BnlSkyline(data, u).Ids();
    std::sort(bnl.begin(), bnl.end());
    std::vector<PointId> sfs = SfsSkyline(data, u).Ids();
    std::sort(sfs.begin(), sfs.end());
    EXPECT_EQ(ids, bnl) << "dims=" << dims;
    EXPECT_EQ(ids, sfs) << "dims=" << dims;
  }
}

}  // namespace
}  // namespace skypeer
