#include "hist/hierarchy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dp/rng.h"

namespace privtree {
namespace {

PointSet RandomPoints(std::size_t n, std::size_t dim, Rng& rng) {
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

/// Per-dimension resolution of the leaf level: b^(h-1).
std::int64_t LeafResolution(const HierarchyHistogram& hist) {
  std::int64_t resolution = 1;
  for (std::int32_t l = 1; l < hist.height(); ++l) {
    resolution *= hist.branching();
  }
  return resolution;
}

TEST(HierarchyTest, DefaultMatchesPaperHeuristic) {
  Rng rng(1);
  const PointSet points = RandomPoints(1000, 2, rng);
  const HierarchyHistogram hist(points, Box::UnitCube(2), 1.0, {}, rng);
  // h = 3, target 64 ⇒ b = 8 (β = 64), leaves 64×64.
  EXPECT_EQ(hist.branching(), 8);
  EXPECT_EQ(LeafResolution(hist), 64);
  EXPECT_EQ(hist.TotalCounts(), 64u + 4096u);
}

TEST(HierarchyTest, HeightSweepAdjustsBranching) {
  Rng rng(2);
  const PointSet points = RandomPoints(1000, 2, rng);
  HierarchyOptions options;
  options.height = 7;  // b = round(64^(1/6)) = 2, leaves 64.
  const HierarchyHistogram hist(points, Box::UnitCube(2), 1.0, options, rng);
  EXPECT_EQ(hist.branching(), 2);
  EXPECT_EQ(LeafResolution(hist), 64);
}

TEST(HierarchyTest, FullDomainQueryNearCardinality) {
  Rng rng(3);
  const PointSet points = RandomPoints(100000, 2, rng);
  const HierarchyHistogram hist(points, Box::UnitCube(2), 1.0, {}, rng);
  EXPECT_NEAR(hist.Query(Box::UnitCube(2)), 100000.0, 3000.0);
}

TEST(HierarchyTest, AlignedQueryIsAccurateAtHighEpsilon) {
  Rng rng(4);
  const PointSet points = RandomPoints(200000, 2, rng);
  const HierarchyHistogram hist(points, Box::UnitCube(2), 1.6, {}, rng);
  const Box query({0.25, 0.125}, {0.75, 0.625});
  const double exact = static_cast<double>(points.ExactRangeCount(query));
  EXPECT_NEAR(hist.Query(query), exact, 0.08 * exact);
}

TEST(HierarchyTest, UnalignedQueryUsesFractionalLeaves) {
  Rng rng(5);
  const PointSet points = RandomPoints(200000, 2, rng);
  const HierarchyHistogram hist(points, Box::UnitCube(2), 1.6, {}, rng);
  const Box query({0.213, 0.377}, {0.641, 0.589});
  const double exact = static_cast<double>(points.ExactRangeCount(query));
  EXPECT_NEAR(hist.Query(query), exact, 0.12 * exact);
}

TEST(HierarchyTest, ConstrainedInferenceMakesLevelsConsistent) {
  // After consistency, a query aligned to a level-1 cell must give the same
  // answer whether served from level 1 or summed from the leaves — i.e.
  // the greedy descent and a leaf-only sum agree.
  Rng rng(6);
  const PointSet points = RandomPoints(50000, 2, rng);
  const HierarchyHistogram hist(points, Box::UnitCube(2), 0.5, {}, rng);
  // Level-1 cell (b = 8): [0.125, 0.25) × [0.25, 0.375).
  const Box cell({0.125, 0.25}, {0.25, 0.375});
  const double from_descent = hist.Query(cell);
  // Sum of the 8×8 leaf cells inside: query slightly inset to force leaf
  // evaluation... instead evaluate by summing 64 aligned leaf queries.
  double from_leaves = 0.0;
  const double leaf_width = 1.0 / 64.0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const Box leaf({0.125 + i * leaf_width, 0.25 + j * leaf_width},
                     {0.125 + (i + 1) * leaf_width,
                      0.25 + (j + 1) * leaf_width});
      from_leaves += hist.Query(leaf);
    }
  }
  EXPECT_NEAR(from_descent, from_leaves, 1e-6);
}

TEST(HierarchyTest, WithoutInferenceLevelsDisagree) {
  Rng rng(7);
  const PointSet points = RandomPoints(50000, 2, rng);
  HierarchyOptions options;
  options.constrained_inference = false;
  const HierarchyHistogram hist(points, Box::UnitCube(2), 0.1, options, rng);
  const Box cell({0.125, 0.25}, {0.25, 0.375});
  const double from_descent = hist.Query(cell);
  double from_leaves = 0.0;
  const double leaf_width = 1.0 / 64.0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const Box leaf({0.125 + i * leaf_width, 0.25 + j * leaf_width},
                     {0.125 + (i + 1) * leaf_width,
                      0.25 + (j + 1) * leaf_width});
      from_leaves += hist.Query(leaf);
    }
  }
  // With ε = 0.1 and independent noise, exact agreement is essentially
  // impossible.
  EXPECT_GT(std::abs(from_descent - from_leaves), 1e-3);
}

TEST(HierarchyDeathTest, InvalidOptionsAbort) {
  Rng rng(8);
  const PointSet points = RandomPoints(10, 2, rng);
  HierarchyOptions options;
  options.height = 1;
  EXPECT_DEATH(HierarchyHistogram(points, Box::UnitCube(2), 1.0, options,
                                  rng),
               "PRIVTREE_CHECK");
}

}  // namespace
}  // namespace privtree
