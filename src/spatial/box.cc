#include "spatial/box.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dp/check.h"

namespace privtree {

Box::Box(std::vector<double> lo, std::vector<double> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  PRIVTREE_CHECK_EQ(lo_.size(), hi_.size());
  for (std::size_t j = 0; j < lo_.size(); ++j) {
    PRIVTREE_CHECK(std::isfinite(lo_[j]));
    PRIVTREE_CHECK(std::isfinite(hi_[j]));
    PRIVTREE_CHECK_LE(lo_[j], hi_[j]);
  }
}

Box Box::UnitCube(std::size_t dim) {
  return Box(std::vector<double>(dim, 0.0), std::vector<double>(dim, 1.0));
}

double Box::Volume() const {
  double volume = 1.0;
  for (std::size_t j = 0; j < dim(); ++j) volume *= Width(j);
  return volume;
}

bool Box::Contains(std::span<const double> point) const {
  PRIVTREE_CHECK_EQ(point.size(), dim());
  for (std::size_t j = 0; j < dim(); ++j) {
    if (point[j] < lo_[j] || point[j] >= hi_[j]) return false;
  }
  return true;
}

bool Box::ContainsBox(const Box& other) const {
  PRIVTREE_CHECK_EQ(other.dim(), dim());
  for (std::size_t j = 0; j < dim(); ++j) {
    if (other.lo_[j] < lo_[j] || other.hi_[j] > hi_[j]) return false;
  }
  return true;
}

bool Box::Intersects(const Box& other) const {
  PRIVTREE_CHECK_EQ(other.dim(), dim());
  for (std::size_t j = 0; j < dim(); ++j) {
    if (std::min(hi_[j], other.hi_[j]) <= std::max(lo_[j], other.lo_[j])) {
      return false;
    }
  }
  return true;
}

double Box::IntersectionVolume(const Box& other) const {
  PRIVTREE_CHECK_EQ(other.dim(), dim());
  double volume = 1.0;
  for (std::size_t j = 0; j < dim(); ++j) {
    const double width = std::min(hi_[j], other.hi_[j]) -
                         std::max(lo_[j], other.lo_[j]);
    if (width <= 0.0) return 0.0;
    volume *= width;
  }
  return volume;
}

Box Box::BisectDim(std::size_t j, int half) const {
  Box out = *this;
  out.Halve(j, half);
  return out;
}

void Box::Halve(std::size_t j, int half) {
  PRIVTREE_CHECK_LT(j, dim());
  PRIVTREE_CHECK(half == 0 || half == 1);
  const double mid = 0.5 * (lo_[j] + hi_[j]);
  if (half == 0) {
    hi_[j] = mid;
  } else {
    lo_[j] = mid;
  }
}

std::string Box::ToString() const {
  std::string out;
  char buf[64];
  for (std::size_t j = 0; j < dim(); ++j) {
    std::snprintf(buf, sizeof(buf), "%s[%g,%g)", j == 0 ? "" : "x", lo_[j],
                  hi_[j]);
    out += buf;
  }
  return out;
}

}  // namespace privtree
