// Micro-benchmarks (google-benchmark) of the computational kernels under
// the SKYPEER protocol: dominance tests, the centralized skyline
// algorithms, Algorithm 1's threshold scan and Algorithm 2's merge.

#include <benchmark/benchmark.h>

#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/divide_conquer.h"
#include "skypeer/algo/extended_skyline.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/sfs.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"
#include "skypeer/algo/anchored_skyline.h"
#include "skypeer/algo/skyband.h"
#include "skypeer/btree/bplus_tree.h"

namespace skypeer {
namespace {

PointSet UniformData(int dims, size_t n, uint64_t seed) {
  Rng rng(seed);
  return GenerateUniform(dims, n, &rng);
}

void BM_Dominates(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  PointSet data = UniformData(dims, 1024, 1);
  const Subspace u = Subspace::FullSpace(dims);
  size_t i = 0;
  for (auto _ : state) {
    const size_t a = i % data.size();
    const size_t b = (i * 7 + 1) % data.size();
    benchmark::DoNotOptimize(Dominates(data[a], data[b], u));
    ++i;
  }
}
BENCHMARK(BM_Dominates)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ExtDominates(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  PointSet data = UniformData(dims, 1024, 2);
  const Subspace u = Subspace::FullSpace(dims);
  size_t i = 0;
  for (auto _ : state) {
    const size_t a = i % data.size();
    const size_t b = (i * 7 + 1) % data.size();
    benchmark::DoNotOptimize(ExtDominates(data[a], data[b], u));
    ++i;
  }
}
BENCHMARK(BM_ExtDominates)->Arg(2)->Arg(8);

void BM_SkylineBnl(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PointSet data = UniformData(5, n, 5);
  const Subspace u = Subspace::FullSpace(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BnlSkyline(data, u));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SkylineBnl)->Arg(1000)->Arg(10000);

void BM_SkylineSfs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PointSet data = UniformData(5, n, 6);
  const Subspace u = Subspace::FullSpace(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SfsSkyline(data, u));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SkylineSfs)->Arg(1000)->Arg(10000);

void BM_SkylineDivideConquer(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PointSet data = UniformData(5, n, 7);
  const Subspace u = Subspace::FullSpace(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DivideConquerSkyline(data, u));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SkylineDivideConquer)->Arg(1000)->Arg(10000);

void BM_SortedSkylineScan(benchmark::State& state) {
  // Algorithm 1 on an f-sorted list, subspace query k=3 out of d=8 — the
  // super-peer's query-time kernel.
  const size_t n = static_cast<size_t>(state.range(0));
  PointSet data = UniformData(8, n, 8);
  ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FromDims({0, 3, 6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedSkyline(sorted, u));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SortedSkylineScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ExtendedSkyline(benchmark::State& state) {
  // The peer-side pre-processing kernel.
  const size_t n = static_cast<size_t>(state.range(0));
  PointSet data = UniformData(8, n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtendedSkyline(data));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExtendedSkyline)->Arg(250)->Arg(1000)->Arg(10000);

void BM_MergeSortedSkylines(benchmark::State& state) {
  // Algorithm 2 over `lists` f-sorted lists — the merging kernel of both
  // the initiator and progressive merging.
  const int lists = static_cast<int>(state.range(0));
  std::vector<ResultList> inputs;
  for (int l = 0; l < lists; ++l) {
    PointSet data = UniformData(8, 2000, 10 + l);
    inputs.push_back(BuildSortedByF(data));
  }
  const Subspace u = Subspace::FromDims({1, 4, 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeSortedSkylines(inputs, u));
  }
}
BENCHMARK(BM_MergeSortedSkylines)->Arg(2)->Arg(8)->Arg(32);

void BM_BPlusTreeInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(12);
  std::vector<double> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.Uniform();
  }
  for (auto _ : state) {
    BPlusTree tree;
    for (size_t i = 0; i < n; ++i) {
      tree.Insert(keys[i], i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreeScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(13);
  BPlusTree tree;
  for (size_t i = 0; i < n; ++i) {
    tree.Insert(rng.Uniform(), i);
  }
  for (auto _ : state) {
    uint64_t checksum = 0;
    for (BPlusTree::Cursor cursor = tree.Begin(); cursor.Valid();
         cursor.Next()) {
      checksum += cursor.payload();
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeScan)->Arg(10000)->Arg(100000);

void BM_KSkyband(benchmark::State& state) {
  const int band = static_cast<int>(state.range(0));
  PointSet data = UniformData(4, 2000, 14);
  const Subspace u = Subspace::FullSpace(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KSkyband(data, u, band));
  }
}
BENCHMARK(BM_KSkyband)->Arg(1)->Arg(2)->Arg(8);

void BM_AnchoredQuery(benchmark::State& state) {
  const int anchors = static_cast<int>(state.range(0));
  PointSet data = UniformData(6, 20000, 15);
  AnchoredSkylineIndex::Options options;
  options.num_anchors = anchors;
  AnchoredSkylineIndex index(data, options);
  const Subspace u = Subspace::FromDims({0, 2, 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(u));
  }
}
BENCHMARK(BM_AnchoredQuery)->Arg(1)->Arg(8)->Arg(32);

}  // namespace
}  // namespace skypeer

BENCHMARK_MAIN();
