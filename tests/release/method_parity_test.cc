// The adapters in release/builtin_methods.cc must be *wrappers*, not
// re-implementations: fitting a registry method under a fixed seed must
// produce bit-for-bit the same released synopsis — and therefore the same
// query answers — as calling the legacy free function / class directly with
// the same Rng seed and ε.  A divergence means the adapter consumed
// randomness or budget differently, which would silently change every
// published number.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "hist/ag.h"
#include "hist/dawa.h"
#include "hist/hierarchy.h"
#include "hist/kdtree.h"
#include "hist/ug.h"
#include "hist/wavelet.h"
#include "release/registry.h"
#include "spatial/box.h"
#include "spatial/point_set.h"
#include "spatial/spatial_histogram.h"

namespace privtree {
namespace {

constexpr std::uint64_t kSeed = 0xFEEDBEEF;
constexpr double kEpsilon = 0.7;

/// Skewed in the first coordinate, uniform in the others.
PointSet TestPoints(std::size_t dim = 2) {
  Rng rng(0xDA7A);
  PointSet points(dim);
  std::vector<double> p(dim);
  for (int i = 0; i < 600; ++i) {
    p[0] = rng.NextDouble() * rng.NextDouble();
    for (std::size_t j = 1; j < dim; ++j) p[j] = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::vector<Box> TestQueries(std::size_t dim = 2) {
  std::vector<Box> queries;
  Rng rng(0x0B0E5);
  std::vector<double> lo(dim), hi(dim);
  for (int i = 0; i < 25; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      lo[j] = rng.NextDouble() * 0.7;
      hi[j] = lo[j] + 0.3;
    }
    queries.emplace_back(lo, hi);
  }
  return queries;
}

/// Fits `name` through the registry under (kSeed, kEpsilon) on the
/// `dim`-dimensional test data and answers the shared query set with
/// per-query Query.
std::vector<double> AdapterAnswers(const std::string& name,
                                   const release::MethodOptions& options = {},
                                   std::size_t dim = 2) {
  auto method = release::GlobalMethodRegistry().Create(name, options);
  PrivacyBudget budget(kEpsilon);
  Rng rng(kSeed);
  method->Fit(TestPoints(dim), Box::UnitCube(dim), budget, rng);
  std::vector<double> out;
  for (const Box& q : TestQueries(dim)) out.push_back(method->Query(q));
  return out;
}

/// The builder's own per-query answers on the `dim`-dimensional queries.
template <typename Synopsis>
std::vector<double> LegacyAnswers(const Synopsis& synopsis, std::size_t dim) {
  std::vector<double> out;
  for (const Box& q : TestQueries(dim)) out.push_back(synopsis.Query(q));
  return out;
}

/// EXPECT_EQ on doubles: bit-for-bit, no tolerance.
void ExpectIdentical(const std::vector<double>& adapter,
                     const std::vector<double>& legacy) {
  ASSERT_EQ(adapter.size(), legacy.size());
  for (std::size_t i = 0; i < adapter.size(); ++i) {
    EXPECT_EQ(adapter[i], legacy[i]) << "query " << i;
  }
}

TEST(MethodParityTest, PrivTree) {
  const PointSet points = TestPoints();
  Rng rng(kSeed);
  const SpatialHistogram hist = BuildPrivTreeHistogram(
      points, Box::UnitCube(2), kEpsilon, {}, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(hist.Query(q));
  ExpectIdentical(AdapterAnswers("privtree"), legacy);
}

TEST(MethodParityTest, SimpleTree) {
  const PointSet points = TestPoints();
  Rng rng(kSeed);
  const SpatialHistogram hist = BuildSimpleTreeHistogram(
      points, Box::UnitCube(2), kEpsilon, {}, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(hist.Query(q));
  ExpectIdentical(AdapterAnswers("simpletree"), legacy);
}

TEST(MethodParityTest, UniformGrid) {
  const PointSet points = TestPoints();
  Rng rng(kSeed);
  const GridHistogram grid =
      BuildUniformGrid(points, Box::UnitCube(2), kEpsilon, {}, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(grid.Query(q));
  ExpectIdentical(AdapterAnswers("ug"), legacy);
}

TEST(MethodParityTest, AdaptiveGrid) {
  const PointSet points = TestPoints();
  Rng rng(kSeed);
  const AdaptiveGrid grid(points, Box::UnitCube(2), kEpsilon, {}, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(grid.Query(q));
  ExpectIdentical(AdapterAnswers("ag"), legacy);
}

TEST(MethodParityTest, KdTree) {
  const PointSet points = TestPoints();
  Rng rng(kSeed);
  const KdTreeHistogram tree(points, Box::UnitCube(2), kEpsilon, {}, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(tree.Query(q));
  ExpectIdentical(AdapterAnswers("kdtree"), legacy);
}

TEST(MethodParityTest, Dawa) {
  const PointSet points = TestPoints();
  DawaOptions options;
  options.target_total_cells = 4096;
  Rng rng(kSeed);
  const GridHistogram grid =
      BuildDawaHistogram(points, Box::UnitCube(2), kEpsilon, options, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(grid.Query(q));
  ExpectIdentical(
      AdapterAnswers("dawa", {{"target_total_cells", "4096"}}), legacy);
}

TEST(MethodParityTest, Hierarchy) {
  const PointSet points = TestPoints();
  Rng rng(kSeed);
  const HierarchyHistogram hier(points, Box::UnitCube(2), kEpsilon, {}, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(hier.Query(q));
  ExpectIdentical(AdapterAnswers("hierarchy"), legacy);
}

TEST(MethodParityTest, Wavelet) {
  const PointSet points = TestPoints();
  PriveletOptions options;
  options.target_total_cells = 4096;
  Rng rng(kSeed);
  const GridHistogram grid = BuildPriveletHistogram(
      points, Box::UnitCube(2), kEpsilon, options, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(grid.Query(q));
  ExpectIdentical(
      AdapterAnswers("wavelet", {{"target_total_cells", "4096"}}), legacy);
}

// Non-default options must also round-trip through the string bag into the
// native option structs.
TEST(MethodParityTest, PrivTreeWithOptions) {
  const PointSet points = TestPoints();
  PrivTreeHistogramOptions options;
  options.dims_per_split = 1;
  options.tree_budget_fraction = 0.3;
  Rng rng(kSeed);
  const SpatialHistogram hist = BuildPrivTreeHistogram(
      points, Box::UnitCube(2), kEpsilon, options, rng);
  std::vector<double> legacy;
  for (const Box& q : TestQueries()) legacy.push_back(hist.Query(q));
  ExpectIdentical(
      AdapterAnswers("privtree", {{"dims_per_split", "1"},
                                  {"tree_budget_fraction", "0.3"}}),
      legacy);
}

// The tree methods answer from their flat layout, whose walk must match
// the builders' in every dimensionality and fanout, not just the 2-d
// quadtree.
TEST(MethodParityTest, TreeMethodsInOneThreeAndFourDimensions) {
  for (const std::size_t dim : {1, 3, 4}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const PointSet points = TestPoints(dim);
    const Box domain = Box::UnitCube(dim);
    {
      Rng rng(kSeed);
      const SpatialHistogram hist =
          BuildPrivTreeHistogram(points, domain, kEpsilon, {}, rng);
      ExpectIdentical(AdapterAnswers("privtree", {}, dim),
                      LegacyAnswers(hist, dim));
    }
    {
      // Height 4 keeps the 4-d tree (fanout 16, every node split while its
      // noisy count clears θ) small.
      SimpleTreeHistogramOptions options;
      options.height = 4;
      Rng rng(kSeed);
      const SpatialHistogram hist =
          BuildSimpleTreeHistogram(points, domain, kEpsilon, options, rng);
      ExpectIdentical(AdapterAnswers("simpletree", {{"height", "4"}}, dim),
                      LegacyAnswers(hist, dim));
    }
    {
      Rng rng(kSeed);
      const KdTreeHistogram tree(points, domain, kEpsilon, {}, rng);
      ExpectIdentical(AdapterAnswers("kdtree", {}, dim),
                      LegacyAnswers(tree, dim));
    }
  }
}

TEST(MethodParityTest, PrivTreeSplittingFewerDimensionsThanTheDomain) {
  for (const auto& [dim, per_split] :
       {std::pair<std::size_t, int>{3, 1}, {4, 2}}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    PrivTreeHistogramOptions options;
    options.dims_per_split = per_split;
    Rng rng(kSeed);
    const SpatialHistogram hist = BuildPrivTreeHistogram(
        TestPoints(dim), Box::UnitCube(dim), kEpsilon, options, rng);
    ExpectIdentical(
        AdapterAnswers("privtree",
                       {{"dims_per_split", std::to_string(per_split)}}, dim),
        LegacyAnswers(hist, dim));
  }
}

}  // namespace
}  // namespace privtree
