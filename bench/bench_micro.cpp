// Google-benchmark microbenchmarks of the library's hot paths: Laplace
// sampling, Morton index construction, PrivTree construction, range
// queries, the batch-query kernels (grid, AG, tree), PST and n-gram
// construction, and the tree fits over an index built beforehand.  These
// are engineering benchmarks (not paper artifacts) used to keep the
// reproduction fast enough for the paper-scale sweeps.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/privtree.h"
#include "core/privtree_params.h"
#include "data/seq_gen.h"
#include "data/spatial_gen.h"
#include "dp/distributions.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "hist/ag.h"
#include "hist/grid.h"
#include "hist/grid_kernels.h"
#include "release/tree_batch.h"
#include "seq/ngram.h"
#include "seq/pst_occurrences.h"
#include "seq/pst_privtree.h"
#include "spatial/morton_index.h"
#include "spatial/spatial_histogram.h"

namespace privtree {
namespace {

void BM_SampleLaplace(benchmark::State& state) {
  Rng rng(1);
  double sink = 0.0;
  for (auto _ : state) {
    sink += SampleLaplace(rng, 2.0);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SampleLaplace);

// Args: point count, then the data shape — 0 gowalla-like (2-d), 1 road-like
// (2-d, the servebench road size is 163,416), 2 nyc-like (4-d).
void BM_MortonIndexBuild(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = state.range(1) == 0   ? GenerateGowallaLike(n, rng)
                          : state.range(1) == 1 ? GenerateRoadLike(n, rng)
                                                : GenerateNycLike(n, rng);
  const Box root = Box::UnitCube(points.dim());
  for (auto _ : state) {
    MortonIndex index(points, root);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MortonIndexBuild)
    ->ArgNames({"n", "shape"})
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->Args({163416, 1})
    ->Args({98013, 2})
    ->Unit(benchmark::kMillisecond);

void BM_PrivTreeBuild(benchmark::State& state) {
  Rng data_rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = GenerateRoadLike(n, data_rng);
  Rng rng(5);
  for (auto _ : state) {
    const auto hist =
        BuildPrivTreeHistogram(points, Box::UnitCube(2), 1.0, {}, rng);
    benchmark::DoNotOptimize(hist.tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PrivTreeBuild)->Arg(10000)->Arg(100000);

// The fit a served tenant runs once its Morton index exists: the index is
// built outside the timed loop, as release::Dataset keeps it.  Arg: point
// count of the road-like data (163,416 is the servebench road size).
void BM_PrivTreeFitOnIndex(benchmark::State& state) {
  Rng data_rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet points = GenerateRoadLike(n, data_rng);
  const MortonIndex index(points, Box::UnitCube(2));
  Rng rng(5);
  for (auto _ : state) {
    const auto hist =
        BuildPrivTreeHistogram(index, Box::UnitCube(2), 1.0, {}, rng);
    benchmark::DoNotOptimize(hist.tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PrivTreeFitOnIndex)
    ->Arg(100000)
    ->Arg(163416)
    ->Unit(benchmark::kMillisecond);

void BM_RangeQuery(benchmark::State& state) {
  Rng data_rng(6);
  const PointSet points = GenerateRoadLike(100000, data_rng);
  Rng rng(7);
  const auto hist =
      BuildPrivTreeHistogram(points, Box::UnitCube(2), 1.0, {}, rng);
  const auto queries =
      GenerateRangeQueries(Box::UnitCube(2), 256, kMediumQueries, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Query(queries[i++ & 255]));
  }
}
BENCHMARK(BM_RangeQuery);

// The batch-query kernels on one seeded, skewed 2-d dataset (40,000
// points, x = u·v and y uniform) and one 4,000-box medium-band workload.
struct KernelCase {
  PointSet points{2};
  std::vector<Box> queries;
};

const KernelCase& KernelData() {
  static const KernelCase data = [] {
    KernelCase c;
    Rng data_rng(0x5EED);
    std::vector<double> p(2);
    for (std::size_t i = 0; i < 40000; ++i) {
      p[0] = data_rng.NextDouble() * data_rng.NextDouble();
      p[1] = data_rng.NextDouble();
      c.points.Add(p);
    }
    Rng query_rng(0xBEEF);
    c.queries =
        GenerateRangeQueries(Box::UnitCube(2), 4000, kMediumQueries, query_rng);
    return c;
  }();
  return data;
}

void SetQueriesProcessed(benchmark::State& state) {
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(KernelData().queries.size()));
}

// Arg: 1 the flat scalar kernel, 2 the SIMD kernel GridHistogram::QueryBatch
// serves with.
void BM_GridQueryBatch2D(benchmark::State& state) {
  const KernelCase& data = KernelData();
  GridHistogram grid =
      GridHistogram::FromPoints(data.points, Box::UnitCube(2), {256, 256});
  Rng noise(0xF00D);
  grid.AddLaplaceNoise(2.0, noise);
  grid.BuildPrefixSums();
  const Grid2DView view = grid.KernelView2D();
  std::vector<double> answers(data.queries.size());
  for (auto _ : state) {
    if (state.range(0) == 1) {
      GridQueryBatch2DScalar(view, data.queries, answers.data());
    } else {
      GridQueryBatch2DSimd(view, data.queries, answers.data());
    }
    benchmark::DoNotOptimize(answers.data());
    benchmark::ClobberMemory();
  }
  SetQueriesProcessed(state);
}
BENCHMARK(BM_GridQueryBatch2D)->ArgName("path")->Arg(1)->Arg(2);

// Arg: 1 the kernel path AdaptiveGrid::QueryBatch serves with (the row
// keeps its name from when path 0 timed the parity oracle).
void BM_AgQueryBatch(benchmark::State& state) {
  const KernelCase& data = KernelData();
  Rng fit_rng(0xA6);
  const AdaptiveGrid grid(data.points, Box::UnitCube(2), 1.0, {}, fit_rng);
  for (auto _ : state) {
    const std::vector<double> answers = grid.QueryBatch(data.queries);
    benchmark::DoNotOptimize(answers.data());
  }
  SetQueriesProcessed(state);
}
BENCHMARK(BM_AgQueryBatch)->ArgName("path")->Arg(1);

// The structure-of-arrays tree sweep a fitted PrivTree histogram serves
// its batches with.
void BM_TreeBatchIndexQuery(benchmark::State& state) {
  const KernelCase& data = KernelData();
  Rng fit_rng(0x7EE);
  const SpatialHistogram hist =
      BuildPrivTreeHistogram(data.points, Box::UnitCube(2), 1.0, {}, fit_rng);
  const release::TreeBatchIndex index(
      hist.tree, hist.count,
      [](const SpatialCell& c) -> const Box& { return c.box; });
  for (auto _ : state) {
    const std::vector<double> answers = index.Query(data.queries);
    benchmark::DoNotOptimize(answers.data());
  }
  SetQueriesProcessed(state);
}
BENCHMARK(BM_TreeBatchIndexQuery);

// Args: sequence count, then the data shape — 0 msnbc-like, 1 mooc-like
// (the servebench mooc tenant is kMoocCardinality sequences).  The raw
// data goes in: the builders truncate at l⊤ themselves, as a served fit
// does.
SequenceDataset SequenceShape(const benchmark::State& state,
                              std::size_t* l_top) {
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  *l_top = state.range(1) == 0 ? kMsnbcLTop : kMoocLTop;
  return state.range(1) == 0 ? GenerateMsnbcLike(n, rng)
                             : GenerateMoocLike(n, rng);
}

void BM_PrivatePstBuild(benchmark::State& state) {
  PrivatePstOptions options;
  const SequenceDataset data = SequenceShape(state, &options.l_top);
  Rng rng(9);
  for (auto _ : state) {
    const auto result = BuildPrivatePst(data, 1.0, options, rng);
    benchmark::DoNotOptimize(result.model.size());
  }
}
BENCHMARK(BM_PrivatePstBuild)
    ->ArgNames({"n", "shape"})
    ->Args({10000, 0})
    ->Args({50000, 0})
    ->Args({static_cast<std::int64_t>(kMoocCardinality), 1})
    ->Unit(benchmark::kMillisecond);

// BM_PrivatePstBuild with the layout made outside the timed loop, as a
// served tenant's fits read it (mooc-like, l⊤ = 50).
void BM_PrivatePstFitOnIndex(benchmark::State& state) {
  PrivatePstOptions options;
  const SequenceDataset data = SequenceShape(state, &options.l_top);
  const PstOccurrences occurrences(data, options.l_top);
  Rng rng(9);
  for (auto _ : state) {
    const auto result = BuildPrivatePst(occurrences, 1.0, options, rng);
    benchmark::DoNotOptimize(result.model.size());
  }
}
BENCHMARK(BM_PrivatePstFitOnIndex)
    ->ArgNames({"n", "shape"})
    ->Args({static_cast<std::int64_t>(kMoocCardinality), 1})
    ->Unit(benchmark::kMillisecond);

void BM_NgramBuild(benchmark::State& state) {
  NgramOptions options;
  const SequenceDataset data = SequenceShape(state, &options.l_top);
  Rng rng(10);
  for (auto _ : state) {
    const NgramModel model(data, 1.0, options, rng);
    benchmark::DoNotOptimize(model.size());
  }
}
BENCHMARK(BM_NgramBuild)
    ->ArgNames({"n", "shape"})
    ->Args({static_cast<std::int64_t>(kMoocCardinality), 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace privtree

BENCHMARK_MAIN();
