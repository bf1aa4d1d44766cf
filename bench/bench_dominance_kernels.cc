// Micro-benchmarks (google-benchmark) of the batched dominance kernels
// against the one-point-at-a-time scalar baseline they replaced. Three
// configurations per operation:
//
//   Baseline  row-major loop over `Dominates` (the pre-blocked code path)
//   Scalar    blocked SoA kernels pinned to the scalar path
//   Dispatch  blocked SoA kernels with runtime dispatch (AVX2/NEON)
//
// The acceptance bar for the SIMD work is Dispatch >= 2x Baseline on
// `AnyDominates` for k <= 8 at window >= 256. Queries are taken near the
// origin so no window point dominates them: every call scans the full
// window, which is the worst case Algorithm 1 pays per accepted skyline
// point and the case the blocked kernels target. `FirstDominator` rows
// plant the only dominator in the last lane, so they also scan the whole
// window and then locate the hit.
//
// The `Bnl` rows time a whole BNL skyline over anti-correlated data
// (Baseline: the per-pair `Dominates` loop BNL ran before it moved onto
// the blocked window; Dispatch: `BnlSkyline`), reported per input point.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/subspace.h"
#include "skypeer/data/generator.h"

namespace skypeer {
namespace {

// Window coordinates in (0, 1]: strictly positive so an all-zero query is
// never dominated and `AnyDominates` cannot exit early.
std::vector<double> RandomRows(int k, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rows(n * static_cast<size_t>(k));
  for (double& v : rows) {
    v = 0.5 * rng.Uniform() + 0.5;
  }
  return rows;
}

BlockedProjection ToBlocked(const std::vector<double>& rows, int k) {
  BlockedProjection proj(k);
  const size_t n = rows.size() / static_cast<size_t>(k);
  proj.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    proj.Append(rows.data() + i * static_cast<size_t>(k));
  }
  return proj;
}

// RAII pin of the kernel dispatch mode for one benchmark run.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(bool force_scalar) {
    SetForceScalarKernels(force_scalar);
  }
  ~ScopedKernelMode() { SetForceScalarKernels(false); }
};

void BM_AnyDominates_Baseline(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(k, n, 17);
  const std::vector<double> q(static_cast<size_t>(k), 0.0);
  const Subspace u = Subspace::FullSpace(k);
  for (auto _ : state) {
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      if (Dominates(rows.data() + i * static_cast<size_t>(k), q.data(), u)) {
        any = true;
        break;
      }
    }
    benchmark::DoNotOptimize(any);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <bool kForceScalar>
void BM_AnyDominates_Blocked(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const BlockedProjection proj = ToBlocked(RandomRows(k, n, 17), k);
  const std::vector<double> q(static_cast<size_t>(k), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnyDominates(proj, q.data(), false));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_AnyDominates_Scalar(benchmark::State& state) {
  BM_AnyDominates_Blocked<true>(state);
}

void BM_AnyDominates_Dispatch(benchmark::State& state) {
  BM_AnyDominates_Blocked<false>(state);
}

void BM_FirstDominator_Dispatch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  std::vector<double> rows = RandomRows(k, n, 19);
  // Rows lie in [0.5, 1): only the planted last row dominates q.
  for (int d = 0; d < k; ++d) {
    rows[(n - 1) * static_cast<size_t>(k) + d] = 0.25;
  }
  const BlockedProjection proj = ToBlocked(rows, k);
  const std::vector<double> q(static_cast<size_t>(k), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FirstDominator(proj, q.data(), false));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_DominatedMask_Baseline(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(k, n, 23);
  const std::vector<double> p(static_cast<size_t>(k), 0.0);
  const Subspace u = Subspace::FullSpace(k);
  std::vector<uint8_t> flags(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      flags[i] = Dominates(p.data(), rows.data() + i * static_cast<size_t>(k),
                           u)
                     ? 1
                     : 0;
    }
    benchmark::DoNotOptimize(flags.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <bool kForceScalar>
void BM_DominatedMask_Blocked(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const BlockedProjection proj = ToBlocked(RandomRows(k, n, 23), k);
  const std::vector<double> p(static_cast<size_t>(k), 0.0);
  std::vector<uint8_t> masks(proj.num_blocks());
  for (auto _ : state) {
    DominatedMask(proj, p.data(), false, masks.data());
    benchmark::DoNotOptimize(masks.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_DominatedMask_Scalar(benchmark::State& state) {
  BM_DominatedMask_Blocked<true>(state);
}

void BM_DominatedMask_Dispatch(benchmark::State& state) {
  BM_DominatedMask_Blocked<false>(state);
}

void BM_MinCoord_Baseline(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(dims, n, 29);
  std::vector<double> out(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = MinCoord(rows.data() + i * static_cast<size_t>(dims), dims);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <bool kForceScalar>
void BM_MinCoord_Blocked(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int dims = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(dims, n, 29);
  std::vector<double> out(n);
  for (auto _ : state) {
    BatchMinCoord(rows.data(), n, dims, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_MinCoord_Scalar(benchmark::State& state) {
  BM_MinCoord_Blocked<true>(state);
}

void BM_MinCoord_Dispatch(benchmark::State& state) {
  BM_MinCoord_Blocked<false>(state);
}

PointSet AnticorrelatedInput(int k, size_t n) {
  Rng rng(37);
  return GenerateAnticorrelated(k, n, &rng);
}

void BM_Bnl_Baseline(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const PointSet input = AnticorrelatedInput(k, n);
  const Subspace u = Subspace::FullSpace(k);
  std::vector<size_t> window;
  for (auto _ : state) {
    window.clear();
    for (size_t i = 0; i < n; ++i) {
      const double* p = input[i];
      bool dominated = false;
      size_t kept = 0;
      for (size_t w = 0; w < window.size(); ++w) {
        const double* q = input[window[w]];
        if (Dominates(q, p, u)) {
          dominated = true;
          for (; w < window.size(); ++w) {
            window[kept++] = window[w];
          }
          break;
        }
        if (!Dominates(p, q, u)) {
          window[kept++] = window[w];
        }
      }
      window.resize(kept);
      if (!dominated) {
        window.push_back(i);
      }
    }
    benchmark::DoNotOptimize(window.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_Bnl_Dispatch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const PointSet input = AnticorrelatedInput(k, n);
  const Subspace u = Subspace::FullSpace(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BnlSkyline(input, u));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BnlGrid(benchmark::internal::Benchmark* b) {
  for (int k : {2, 3, 5}) {
    for (int n : {1024, 4096}) {
      b->Args({k, n});
    }
  }
}

void KernelGrid(benchmark::internal::Benchmark* b) {
  for (int k : {1, 2, 3, 5, 8}) {
    for (int window : {64, 256, 1024, 4096}) {
      b->Args({k, window});
    }
  }
}

BENCHMARK(BM_AnyDominates_Baseline)->Apply(KernelGrid);
BENCHMARK(BM_AnyDominates_Scalar)->Apply(KernelGrid);
BENCHMARK(BM_AnyDominates_Dispatch)->Apply(KernelGrid);
BENCHMARK(BM_FirstDominator_Dispatch)->Apply(KernelGrid);
BENCHMARK(BM_DominatedMask_Baseline)->Apply(KernelGrid);
BENCHMARK(BM_DominatedMask_Scalar)->Apply(KernelGrid);
BENCHMARK(BM_DominatedMask_Dispatch)->Apply(KernelGrid);
BENCHMARK(BM_MinCoord_Baseline)->Apply(KernelGrid);
BENCHMARK(BM_MinCoord_Scalar)->Apply(KernelGrid);
BENCHMARK(BM_MinCoord_Dispatch)->Apply(KernelGrid);
BENCHMARK(BM_Bnl_Baseline)->Apply(BnlGrid);
BENCHMARK(BM_Bnl_Dispatch)->Apply(BnlGrid);

}  // namespace
}  // namespace skypeer

BENCHMARK_MAIN();
