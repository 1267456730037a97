// A flat, cache-friendly container of d-dimensional points.
#ifndef PRIVTREE_SPATIAL_POINT_SET_H_
#define PRIVTREE_SPATIAL_POINT_SET_H_

#include <cstddef>
#include <span>
#include <vector>

#include "spatial/box.h"

namespace privtree {

/// A multiset of points in R^d, stored as one contiguous coordinate array.
class PointSet {
 public:
  /// Creates an empty point set of the given dimensionality.
  explicit PointSet(std::size_t dim);

  /// Wraps pre-existing flattened coordinates (size must be a multiple of
  /// dim).
  PointSet(std::size_t dim, std::vector<double> coords);

  std::size_t dim() const { return dim_; }
  std::size_t size() const { return coords_.size() / dim_; }
  bool empty() const { return coords_.empty(); }

  /// Appends one point (span of dim() coordinates).
  void Add(std::span<const double> point);

  /// The i-th point as a span of dim() coordinates.
  std::span<const double> point(std::size_t i) const {
    return {coords_.data() + i * dim_, dim_};
  }

  const std::vector<double>& coords() const { return coords_; }

  /// Exact number of points inside `box` (O(n) scan).  Used for ground
  /// truth; private algorithms must not release this directly.
  std::size_t ExactRangeCount(const Box& box) const;

 private:
  std::size_t dim_;
  std::vector<double> coords_;
};

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_POINT_SET_H_
