#include "hist/ag.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "dp/check.h"
#include "dp/distributions.h"

namespace privtree {

AdaptiveGrid::AdaptiveGrid(const PointSet& points, const Box& domain,
                           double epsilon, const AdaptiveGridOptions& options,
                           Rng& rng)
    : domain_(domain) {
  PRIVTREE_CHECK_EQ(domain.dim(), 2u);
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_GT(options.alpha, 0.0);
  PRIVTREE_CHECK_LT(options.alpha, 1.0);

  const double eps1 = options.alpha * epsilon;
  const double eps2 = (1.0 - options.alpha) * epsilon;
  const double n = static_cast<double>(points.size());

  // Level-1 granularity: m1 = max(10, ceil(sqrt(n·ε/c1) / 4)), scaled by
  // sqrt(cell_scale) per dimension.
  double m1 = std::ceil(std::sqrt(std::max(n * epsilon / options.c1, 0.0)) /
                        4.0);
  m1 = std::max(m1, 10.0);
  m1 *= std::sqrt(std::max(options.cell_scale, 1e-12));
  m1_ = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(m1)));

  // Exact level-1 cell counts, then noise with eps1.
  GridHistogram level1 =
      GridHistogram::FromPoints(points, domain, {m1_, m1_});
  level1_count_ = level1.counts();
  for (double& c : level1_count_) c += SampleLaplace(rng, 1.0 / eps1);

  // Partition points into level-1 cells once, for building sub-grids.
  std::vector<std::vector<double>> cell_points(
      static_cast<std::size_t>(m1_ * m1_));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto p = points.point(i);
    const std::int64_t cx = level1.CellOf(p[0], 0);
    const std::int64_t cy = level1.CellOf(p[1], 1);
    auto& bucket = cell_points[static_cast<std::size_t>(cx * m1_ + cy)];
    bucket.push_back(p[0]);
    bucket.push_back(p[1]);
  }

  level2_.reserve(level1_count_.size());
  std::vector<std::int64_t> cell(2);
  for (std::int64_t cx = 0; cx < m1_; ++cx) {
    for (std::int64_t cy = 0; cy < m1_; ++cy) {
      cell[0] = cx;
      cell[1] = cy;
      const std::size_t flat = static_cast<std::size_t>(cx * m1_ + cy);
      const Box cell_box = level1.CellBox(cell);
      // Adaptive level-2 granularity from the noisy level-1 count.
      const double nc = std::max(level1_count_[flat], 0.0);
      double m2 = std::ceil(std::sqrt(nc * eps2 / options.c2));
      m2 *= std::sqrt(std::max(options.cell_scale, 1e-12));
      const std::int64_t m2i =
          std::max<std::int64_t>(1, static_cast<std::int64_t>(m2));

      PointSet cell_set(2, std::move(cell_points[flat]));
      GridHistogram sub =
          GridHistogram::FromPoints(cell_set, cell_box, {m2i, m2i});
      sub.AddLaplaceNoise(1.0 / eps2, rng);

      // Constrained inference (Qardaji et al., Section 4.2): combine the
      // level-1 estimate and the sub-grid sum with inverse-variance weights,
      // then distribute the residual uniformly over the sub-cells.
      const double k = static_cast<double>(sub.total_cells());
      double sub_sum = 0.0;
      for (double c : sub.counts()) sub_sum += c;
      const double var1 = 2.0 / (eps1 * eps1);       // Var of Lap(1/eps1).
      const double var2 = k * 2.0 / (eps2 * eps2);   // Var of the sub sum.
      const double weight = var2 / (var1 + var2);
      const double blended =
          weight * level1_count_[flat] + (1.0 - weight) * sub_sum;
      const double adjust = (blended - sub_sum) / k;
      for (double& c : sub.counts()) c += adjust;

      sub.BuildPrefixSums();
      level2_.push_back(std::move(sub));
    }
  }

  std::vector<double> cell_totals(level2_.size());
  for (std::size_t i = 0; i < level2_.size(); ++i) {
    cell_totals[i] = level2_[i].Total();
  }
  cell_total_sat_ = SummedAreaTable2D(cell_totals, m1_, m1_);
  level2_view_.reserve(level2_.size());
  for (const GridHistogram& sub : level2_) {
    level2_view_.push_back(sub.KernelView2D());
  }
}

AdaptiveGrid::AdaptiveGrid(Box domain, std::int64_t m1,
                           std::vector<double> level1_counts,
                           std::vector<GridHistogram> level2)
    : m1_(m1),
      domain_(std::move(domain)),
      level1_count_(std::move(level1_counts)),
      level2_(std::move(level2)) {
  PRIVTREE_CHECK_EQ(domain_.dim(), 2u);
  PRIVTREE_CHECK_GE(m1_, 1);
  const auto cells = static_cast<std::size_t>(m1_ * m1_);
  PRIVTREE_CHECK_EQ(level1_count_.size(), cells);
  PRIVTREE_CHECK_EQ(level2_.size(), cells);
  std::vector<double> cell_totals(level2_.size());
  for (std::size_t i = 0; i < level2_.size(); ++i) {
    cell_totals[i] = level2_[i].Total();
  }
  cell_total_sat_ = SummedAreaTable2D(cell_totals, m1_, m1_);
  level2_view_.reserve(level2_.size());
  for (const GridHistogram& sub : level2_) {
    level2_view_.push_back(sub.KernelView2D());
  }
}

namespace {

/// The closed level-1 cell range [lo_cell, hi_cell] overlapping `q` along
/// each dimension; false when `q` misses the domain entirely.
bool OverlappedCells(const Box& domain, std::int64_t m1, const Box& q,
                     std::int64_t lo_cell[2], std::int64_t hi_cell[2]) {
  for (std::size_t j = 0; j < 2; ++j) {
    const double width = domain.Width(j) / static_cast<double>(m1);
    const double rel_lo = (q.lo(j) - domain.lo(j)) / width;
    const double rel_hi = (q.hi(j) - domain.lo(j)) / width;
    lo_cell[j] = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor(rel_lo)), 0, m1 - 1);
    hi_cell[j] = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::ceil(rel_hi)) - 1, 0, m1 - 1);
    if (rel_hi <= 0.0 || rel_lo >= static_cast<double>(m1)) return false;
  }
  return true;
}

}  // namespace

double AdaptiveGrid::Query(const Box& q) const {
  // Restrict to the level-1 cells overlapping q.
  std::int64_t lo_cell[2], hi_cell[2];
  if (!OverlappedCells(domain_, m1_, q, lo_cell, hi_cell)) return 0.0;
  double ans = 0.0;
  for (std::int64_t cx = lo_cell[0]; cx <= hi_cell[0]; ++cx) {
    for (std::int64_t cy = lo_cell[1]; cy <= hi_cell[1]; ++cy) {
      const GridHistogram& sub =
          level2_[static_cast<std::size_t>(cx * m1_ + cy)];
      if (q.Intersects(sub.domain())) ans += sub.Query(q);
    }
  }
  return ans;
}

std::vector<double> AdaptiveGrid::QueryBatch(
    std::span<const Box> queries) const {
  std::vector<double> answers;
  answers.reserve(queries.size());
  for (const Box& q : queries) {
    PRIVTREE_CHECK_EQ(q.dim(), 2u);
    std::int64_t lo_cell[2], hi_cell[2];
    if (!OverlappedCells(domain_, m1_, q, lo_cell, hi_cell)) {
      answers.push_back(0.0);
      continue;
    }
    // Cells strictly inside the overlapped range are fully covered by q
    // (their boundaries lie beyond q's projection onto the edge cells), so
    // the summed-area table answers all of them at once.
    double ans = cell_total_sat_.RectSum(lo_cell[0] + 1, lo_cell[1] + 1,
                                         hi_cell[0], hi_cell[1]);
    // Boundary cells run on the flat kernel views.  The intersection test
    // replicates Box::Intersects on the view's domain scalars, and
    // GridQueryOne2D is bit-for-bit GridHistogram::Query — with the
    // domain-edge coordinate shortcuts, every side of a boundary cell that
    // q fully covers resolves without a division.
    const auto visit = [&](std::int64_t cx, std::int64_t cy) {
      const Grid2DView& sub =
          level2_view_[static_cast<std::size_t>(cx * m1_ + cy)];
      if (std::min(q.hi(0), sub.dhi0) <= std::max(q.lo(0), sub.dlo0)) return;
      if (std::min(q.hi(1), sub.dhi1) <= std::max(q.lo(1), sub.dlo1)) return;
      ans += GridQueryOne2D(sub, q);
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

std::size_t AdaptiveGrid::TotalCells() const {
  std::size_t total = level1_count_.size();
  for (const GridHistogram& sub : level2_) total += sub.total_cells();
  return total;
}

}  // namespace privtree
