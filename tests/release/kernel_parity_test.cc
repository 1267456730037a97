// The bit-for-bit contract of the batch-query kernels.  Every specialized
// path — the flat 2-d grid kernels (scalar and SIMD), the SoA tree sweep
// (TreeBatchIndex), AG's kernel-view boundary path — must answer exactly
// like its reference implementation on every input, including degenerate
// and adversarial boxes, and must stay deterministic under concurrent
// callers.  Parity is EXPECT_EQ on doubles throughout: "close" is a bug
// here, because the serving layer promises compressed/vectorized answers
// indistinguishable from the originals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "hist/ag.h"
#include "hist/grid.h"
#include "hist/grid_kernels.h"
#include "hist/kdtree.h"
#include "hist/sat.h"
#include "release/tree_batch.h"
#include "serve/thread_pool.h"
#include "spatial/box.h"
#include "spatial/point_set.h"
#include "spatial/spatial_histogram.h"

namespace privtree {
namespace {

PointSet TestPoints(std::size_t n, std::uint64_t seed, std::size_t dim = 2) {
  Rng rng(seed);
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = j == 0 ? rng.NextDouble() * rng.NextDouble() : rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

/// The template sweep TreeBatchIndex flattened, kept here as its parity
/// oracle: one pass over the node array in id order (children have larger
/// ids than their parents), carrying per node the queries that partially
/// overlap it, classifying each query/node pair with the Box members.
/// `box_of` maps a node's Domain to its geometric Box.
template <typename Domain, typename BoxOf>
std::vector<double> BatchQueryTree(const DecompTree<Domain>& tree,
                                   const std::vector<double>& count,
                                   std::span<const Box> queries,
                                   BoxOf&& box_of) {
  std::vector<double> answers(queries.size(), 0.0);
  if (tree.empty() || queries.empty()) return answers;
  EXPECT_EQ(count.size(), tree.size());

  // active[v] = queries partially overlapping node v, discovered while
  // processing v's parent.  Lists are freed as soon as the node is swept.
  std::vector<std::vector<std::uint32_t>> active(tree.size());
  const Box& root_box = box_of(tree.node(tree.root()).domain);
  for (std::uint32_t q = 0; q < queries.size(); ++q) {
    if (!queries[q].Intersects(root_box)) continue;
    if (queries[q].ContainsBox(root_box)) {
      answers[q] += count[tree.root()];
      continue;
    }
    active[tree.root()].push_back(q);
  }

  for (std::size_t v = 0; v < tree.size(); ++v) {
    if (active[v].empty()) continue;
    const auto& node = tree.node(static_cast<NodeId>(v));
    if (node.is_leaf()) {
      // Partial leaf: uniformity assumption inside the cell.
      const Box& dom = box_of(node.domain);
      const double volume = dom.Volume();
      if (volume > 0.0) {
        for (const std::uint32_t q : active[v]) {
          answers[q] += count[v] * (dom.IntersectionVolume(queries[q]) / volume);
        }
      }
    } else {
      for (const NodeId child : node.children) {
        const Box& child_box = box_of(tree.node(child).domain);
        for (const std::uint32_t q : active[v]) {
          if (!queries[q].Intersects(child_box)) continue;
          if (queries[q].ContainsBox(child_box)) {
            answers[q] += count[child];
          } else {
            active[child].push_back(q);
          }
        }
      }
    }
    active[v] = {};  // Free the list; the sweep never revisits v.
  }
  return answers;
}

/// GridHistogram's generic d-dimensional query path, kept here as the
/// parity oracle of the 2-d kernels: the prefix-sum lattice rebuilt from
/// counts(), the multilinear CDF over it, and inclusion–exclusion over the
/// 2^d corners of the clipped box — the same arithmetic in the same order.
std::vector<double> GridReference(const GridHistogram& grid,
                                  std::span<const Box> queries) {
  const std::size_t d = grid.dim();
  const Box& domain = grid.domain();
  const std::vector<std::int64_t>& cells = grid.cells_per_dim();
  std::vector<std::size_t> extent(d), stride(d, 1);
  for (std::size_t j = 0; j < d; ++j) {
    extent[j] = static_cast<std::size_t>(cells[j]) + 1;
  }
  for (std::size_t j = d - 1; j > 0; --j) stride[j - 1] = stride[j] * extent[j];
  std::vector<double> prefix(stride[0] * extent[0], 0.0);
  std::vector<std::int64_t> cell(d, 0);
  for (const double count : grid.counts()) {
    std::size_t index = 0;
    for (std::size_t j = 0; j < d; ++j) {
      index += (static_cast<std::size_t>(cell[j]) + 1) * stride[j];
    }
    prefix[index] = count;
    for (std::size_t j = d; j-- > 0;) {  // Row-major, last dim fastest.
      if (++cell[j] < cells[j]) break;
      cell[j] = 0;
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t base = 0; base < prefix.size(); ++base) {
      if ((base / stride[j]) % extent[j] != 0) continue;
      double running = 0.0;
      for (std::size_t t = 0; t < extent[j]; ++t) {
        running += prefix[base + t * stride[j]];
        prefix[base + t * stride[j]] = running;
      }
    }
  }
  const auto cdf = [&](const double* x) {
    std::size_t base_cell[8];
    double frac[8];
    for (std::size_t j = 0; j < d; ++j) {
      const double m = static_cast<double>(cells[j]);
      double t = (x[j] - domain.lo(j)) / domain.Width(j) * m;
      t = std::clamp(t, 0.0, m);
      double integral = std::floor(t);
      if (integral >= m) integral = m - 1.0;
      base_cell[j] = static_cast<std::size_t>(integral);
      frac[j] = t - integral;
    }
    double value = 0.0;
    for (std::size_t mask = 0; mask < (std::size_t{1} << d); ++mask) {
      double weight = 1.0;
      std::size_t index = 0;
      for (std::size_t j = 0; j < d; ++j) {
        const bool upper = (mask >> j) & 1u;
        weight *= upper ? frac[j] : (1.0 - frac[j]);
        index += (base_cell[j] + (upper ? 1 : 0)) * stride[j];
      }
      if (weight != 0.0) value += weight * prefix[index];
    }
    return value;
  };
  std::vector<double> answers;
  answers.reserve(queries.size());
  for (const Box& q : queries) {
    double lo[8], hi[8];
    bool empty = false;
    for (std::size_t j = 0; j < d; ++j) {
      lo[j] = std::max(q.lo(j), domain.lo(j));
      hi[j] = std::min(q.hi(j), domain.hi(j));
      if (lo[j] >= hi[j]) empty = true;
    }
    double ans = 0.0;
    for (std::size_t mask = 0; !empty && mask < (std::size_t{1} << d);
         ++mask) {
      double corner[8];
      int ones = 0;
      for (std::size_t j = 0; j < d; ++j) {
        const bool upper = (mask >> j) & 1u;
        corner[j] = upper ? hi[j] : lo[j];
        ones += upper ? 1 : 0;
      }
      const double sign = ((d - ones) % 2 == 0) ? 1.0 : -1.0;
      ans += sign * cdf(corner);
    }
    answers.push_back(ans);
  }
  return answers;
}

/// AdaptiveGrid's pre-kernel batch path, kept here as QueryBatch's parity
/// oracle: a summed-area table of the sub-grid totals answers the level-1
/// cells strictly inside the query, and GridHistogram::Query the boundary.
std::vector<double> AgReference(const AdaptiveGrid& grid,
                                std::span<const Box> queries) {
  const std::int64_t m1 = grid.level1_granularity();
  const Box& domain = grid.domain();
  std::vector<double> totals;
  for (const GridHistogram& sub : grid.level2()) totals.push_back(sub.Total());
  const SummedAreaTable2D sat(totals, m1, m1);
  std::vector<double> answers;
  answers.reserve(queries.size());
  for (const Box& q : queries) {
    std::int64_t lo_cell[2], hi_cell[2];
    bool overlaps = true;
    for (std::size_t j = 0; j < 2; ++j) {
      const double width = domain.Width(j) / static_cast<double>(m1);
      const double rel_lo = (q.lo(j) - domain.lo(j)) / width;
      const double rel_hi = (q.hi(j) - domain.lo(j)) / width;
      lo_cell[j] = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::floor(rel_lo)), 0, m1 - 1);
      hi_cell[j] = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::ceil(rel_hi)) - 1, 0, m1 - 1);
      if (rel_hi <= 0.0 || rel_lo >= static_cast<double>(m1)) {
        overlaps = false;
        break;
      }
    }
    if (!overlaps) {
      answers.push_back(0.0);
      continue;
    }
    double ans =
        sat.RectSum(lo_cell[0] + 1, lo_cell[1] + 1, hi_cell[0], hi_cell[1]);
    const auto visit = [&](std::int64_t cx, std::int64_t cy) {
      const GridHistogram& sub =
          grid.level2()[static_cast<std::size_t>(cx * m1 + cy)];
      if (q.Intersects(sub.domain())) ans += sub.Query(q);
    };
    for (std::int64_t cx = lo_cell[0]; cx <= hi_cell[0]; ++cx) {
      if (cx == lo_cell[0] || cx == hi_cell[0]) {
        for (std::int64_t cy = lo_cell[1]; cy <= hi_cell[1]; ++cy) {
          visit(cx, cy);
        }
      } else {
        visit(cx, lo_cell[1]);
        if (hi_cell[1] != lo_cell[1]) visit(cx, hi_cell[1]);
      }
    }
    answers.push_back(ans);
  }
  return answers;
}

/// Random boxes plus the degenerate shapes the kernels must not special-case
/// differently from the reference: empty intersections, zero-width slabs,
/// exact domain covers, boxes straddling or outside the domain.
std::vector<Box> AdversarialQueries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
  queries.push_back(Box::UnitCube(2));                    // Full cover.
  queries.push_back(Box({0.0, 0.0}, {0.0, 0.0}));         // A point.
  queries.push_back(Box({0.3, 0.3}, {0.3, 0.9}));         // Zero width.
  queries.push_back(Box({0.25, 0.9}, {0.75, 0.9}));       // Zero height.
  queries.push_back(Box({-2.0, -2.0}, {-1.0, -1.0}));     // Disjoint.
  queries.push_back(Box({-1.0, -1.0}, {2.0, 2.0}));       // Superset.
  queries.push_back(Box({0.5, -1.0}, {2.0, 0.5}));        // Corner overlap.
  queries.push_back(Box({0.0, 0.4}, {1.0, 0.6}));         // Full-width band.
  queries.push_back(Box({1.0, 0.0}, {1.0, 1.0}));         // Upper boundary.
  return queries;
}

GridHistogram NoisyGrid(std::int64_t m0, std::int64_t m1, std::uint64_t seed) {
  GridHistogram grid = GridHistogram::FromPoints(
      TestPoints(3000, seed), Box::UnitCube(2), {m0, m1});
  Rng rng(seed ^ 0xF00D);
  grid.AddLaplaceNoise(2.0, rng);
  grid.BuildPrefixSums();
  return grid;
}

TEST(GridKernelParityTest, ScalarAndSimdMatchQueryAndReferenceBitwise) {
  const std::vector<Box> queries = AdversarialQueries(300, 0xA11CE);
  // Granularities around SIMD lane widths (1..5) and a large grid.
  const std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
      {1, 1}, {2, 3}, {4, 4}, {5, 7}, {16, 16}, {64, 64}, {128, 32}};
  std::uint64_t seed = 1;
  for (const auto& [m0, m1] : shapes) {
    SCOPED_TRACE(testing::Message() << "grid " << m0 << "x" << m1);
    const GridHistogram grid = NoisyGrid(m0, m1, seed++);
    const Grid2DView view = grid.KernelView2D();

    const std::vector<double> reference = GridReference(grid, queries);
    const std::vector<double> batch = grid.QueryBatch(queries);
    std::vector<double> scalar(queries.size()), simd(queries.size());
    GridQueryBatch2DScalar(view, queries, scalar.data());
    GridQueryBatch2DSimd(view, queries, simd.data());

    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double want = grid.Query(queries[i]);
      EXPECT_EQ(reference[i], want) << "query " << i;
      EXPECT_EQ(batch[i], want) << "query " << i;
      EXPECT_EQ(scalar[i], want) << "query " << i;
      EXPECT_EQ(simd[i], want) << "query " << i;
      EXPECT_EQ(GridQueryOne2D(view, queries[i]), want) << "query " << i;
    }
  }
}

TEST(GridKernelParityTest, NonTwoDimensionalGridsKeepTheGenericPath) {
  // 3-d grids take the generic QueryImpl everywhere; QueryBatch must still
  // equal Query and the reference bitwise.
  GridHistogram grid = GridHistogram::FromPoints(
      TestPoints(2000, 0x3D, 3), Box::UnitCube(3), {8, 4, 6});
  Rng noise(0x3D1);
  grid.AddLaplaceNoise(1.5, noise);
  grid.BuildPrefixSums();
  Rng rng(0x3D2);
  const std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(3), 120, kMediumQueries, rng);
  const std::vector<double> batch = grid.QueryBatch(queries);
  const std::vector<double> reference = GridReference(grid, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], grid.Query(queries[i])) << "query " << i;
    EXPECT_EQ(reference[i], batch[i]) << "query " << i;
  }
}

TEST(TreeBatchIndexParityTest, MatchesTheTemplateSweepOnSpatialTrees) {
  const PointSet points = TestPoints(4000, 0x7EE);
  const std::vector<Box> queries = AdversarialQueries(250, 0x7EE1);
  const auto box_of = [](const SpatialCell& c) -> const Box& { return c.box; };

  Rng privtree_rng(5);
  const SpatialHistogram privtree = BuildPrivTreeHistogram(
      points, Box::UnitCube(2), 1.0, {}, privtree_rng);
  Rng simple_rng(6);
  SimpleTreeHistogramOptions simple_options;
  simple_options.height = 6;
  const SpatialHistogram simple = BuildSimpleTreeHistogram(
      points, Box::UnitCube(2), 1.0, simple_options, simple_rng);

  for (const SpatialHistogram* hist : {&privtree, &simple}) {
    const std::vector<double> want = BatchQueryTree(
        hist->tree, hist->count, std::span<const Box>(queries), box_of);
    const release::TreeBatchIndex index(hist->tree, hist->count, box_of);
    EXPECT_EQ(index.size(), hist->tree.size());
    const std::vector<double> got = index.Query(queries);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "query " << i;
    }
  }
}

TEST(TreeBatchIndexParityTest, MatchesTheTemplateSweepOnKdTrees) {
  const PointSet points = TestPoints(3000, 0x1D);
  Rng rng(0x1D1);
  KdTreeOptions options;
  options.height = 6;
  const KdTreeHistogram kd(points, Box::UnitCube(2), 1.0, options, rng);
  const auto box_of = [](const Box& b) -> const Box& { return b; };
  const std::vector<Box> queries = AdversarialQueries(250, 0x1D2);
  const std::vector<double> want = BatchQueryTree(
      kd.tree(), kd.counts(), std::span<const Box>(queries), box_of);
  const release::TreeBatchIndex index(kd.tree(), kd.counts(), box_of);
  const std::vector<double> got = index.Query(queries);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
}

TEST(TreeBatchIndexParityTest, EmptyIndexAnswersZero) {
  const release::TreeBatchIndex index;
  const std::vector<Box> queries = {Box::UnitCube(2)};
  const std::vector<double> got = index.Query(queries);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0.0);
}

TEST(AdaptiveGridParityTest, QueryBatchMatchesReferenceBitwise) {
  const PointSet points = TestPoints(5000, 0xA6);
  Rng fit_rng(0xA61);
  const AdaptiveGrid grid(points, Box::UnitCube(2), 1.0, {}, fit_rng);
  const std::vector<Box> queries = AdversarialQueries(300, 0xA62);
  const std::vector<double> got = grid.QueryBatch(queries);
  const std::vector<double> want = AgReference(grid, queries);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
}

TEST(KernelConcurrencyTest, EightThreadsReproduceSerialAnswersBitwise) {
  // The kernels hold no mutable state, so concurrent batches over one
  // synopsis must equal the serial run exactly — at every thread count.
  const GridHistogram grid = NoisyGrid(32, 32, 0xC0);
  const PointSet points = TestPoints(3000, 0xC1);
  Rng tree_rng(0xC2);
  const SpatialHistogram tree = BuildPrivTreeHistogram(
      points, Box::UnitCube(2), 1.0, {}, tree_rng);
  const release::TreeBatchIndex index(
      tree.tree, tree.count,
      [](const SpatialCell& c) -> const Box& { return c.box; });

  const std::vector<Box> queries = AdversarialQueries(400, 0xC3);
  const std::vector<double> grid_serial = grid.QueryBatch(queries);
  const std::vector<double> tree_serial = index.Query(queries);

  serve::ThreadPool pool(8);
  std::vector<std::vector<double>> grid_runs(16), tree_runs(16);
  pool.ParallelFor(grid_runs.size(), [&](std::size_t i) {
    grid_runs[i] = grid.QueryBatch(queries);
    tree_runs[i] = index.Query(queries);
  });
  for (std::size_t r = 0; r < grid_runs.size(); ++r) {
    ASSERT_EQ(grid_runs[r].size(), grid_serial.size());
    ASSERT_EQ(tree_runs[r].size(), tree_serial.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(grid_runs[r][i], grid_serial[i]) << "run " << r;
      EXPECT_EQ(tree_runs[r][i], tree_serial[i]) << "run " << r;
    }
  }
}

}  // namespace
}  // namespace privtree
