#include "spatial/point_set.h"

#include <cmath>
#include <utility>

#include "dp/check.h"

namespace privtree {

PointSet::PointSet(std::size_t dim) : dim_(dim) { PRIVTREE_CHECK_GT(dim, 0u); }

PointSet::PointSet(std::size_t dim, std::vector<double> coords)
    : dim_(dim), coords_(std::move(coords)) {
  PRIVTREE_CHECK_GT(dim, 0u);
  PRIVTREE_CHECK_EQ(coords_.size() % dim, 0u);
}

void PointSet::Add(std::span<const double> point) {
  PRIVTREE_CHECK_EQ(point.size(), dim_);
  // Non-finite coordinates would propagate into undefined behaviour in the
  // Morton discretization; reject them at the boundary.
  for (double x : point) {
    PRIVTREE_CHECK(std::isfinite(x));
  }
  coords_.insert(coords_.end(), point.begin(), point.end());
}

std::size_t PointSet::ExactRangeCount(const Box& box) const {
  PRIVTREE_CHECK_EQ(box.dim(), dim_);
  std::size_t count = 0;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (box.Contains(point(i))) ++count;
  }
  return count;
}

}  // namespace privtree
