// Axis-aligned boxes in d-dimensional space.
//
// A box is the half-open product ∏ [lo_j, hi_j); half-openness makes the
// children of a bisection a true partition of the parent.
#ifndef PRIVTREE_SPATIAL_BOX_H_
#define PRIVTREE_SPATIAL_BOX_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace privtree {

/// An axis-aligned half-open box ∏_j [lo[j], hi[j]).
class Box {
 public:
  Box() = default;

  /// Constructs from explicit bounds; lo.size() == hi.size() and
  /// lo[j] <= hi[j] for all j are required.
  Box(std::vector<double> lo, std::vector<double> hi);

  /// The unit cube [0,1)^dim.
  static Box UnitCube(std::size_t dim);

  std::size_t dim() const { return lo_.size(); }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }
  double lo(std::size_t j) const { return lo_[j]; }
  double hi(std::size_t j) const { return hi_[j]; }
  double Width(std::size_t j) const { return hi_[j] - lo_[j]; }

  /// Product of side lengths.
  double Volume() const;

  /// Whether the point (given as a dim()-element span) lies in the box.
  bool Contains(std::span<const double> point) const;

  /// Whether `other` is fully contained in this box.
  bool ContainsBox(const Box& other) const;

  /// Whether the two boxes share positive volume... more precisely, whether
  /// their closed intersection is non-empty in every dimension with
  /// lo < hi (touching boundaries do not count, consistent with
  /// half-openness).
  bool Intersects(const Box& other) const;

  /// Volume of the intersection (0 if disjoint).
  double IntersectionVolume(const Box& other) const;

  /// Returns a copy with dimension `j` bisected; `half` is 0 for the lower
  /// half and 1 for the upper half.
  Box BisectDim(std::size_t j, int half) const;

  /// BisectDim in place.
  void Halve(std::size_t j, int half);

  /// Human-readable form, e.g. "[0,0.5)x[0.25,0.5)".
  std::string ToString() const;

  bool operator==(const Box& other) const = default;

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_BOX_H_
