// A Morton-order (bit-interleaved) index for counting points in dyadic
// cells in O(log n).
//
// Every point is mapped to a 128-bit key by interleaving the bits of its
// per-dimension integer coordinates in *round-robin* order (level-major,
// dimension-minor): bit k of the key is bit (L-1-k/d) of dimension (k mod d).
// A cell produced by recursively bisecting the root box in the same
// round-robin dimension order corresponds to a key prefix, so its point
// count is one pair of binary searches over the sorted keys.
//
// This is exactly the family of cells PrivTree's spatial policies generate
// (both the full 2^d bisection and the lower-fanout round-robin splits of
// Figure 8).  A child's keys are a sub-range of its parent's, so a
// decomposition carries each cell's [begin, end) range and finds a split's
// β−1 inner boundaries by binary search inside the parent's range alone:
// O(β · log(parent count)) per split, and a cell's count is end − begin.
// Building is two linear passes over the points with no scratch buffer
// beyond the keys themselves: a key pass that spreads each coordinate byte
// to stride d through a 256-entry table, and an in-place MSD radix sort on
// key bytes, O(n · w) for w key bytes that still distinguish keys (buckets
// of at most 64 keys fall back to std::sort).
// That keeps the paper-scale road dataset (1.6M points) cheap to index.
#ifndef PRIVTREE_SPATIAL_MORTON_INDEX_H_
#define PRIVTREE_SPATIAL_MORTON_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {

/// 128-bit Morton key.
using MortonKey = unsigned __int128;

/// Sorted Morton keys over a point set, supporting dyadic-prefix counting.
class MortonIndex {
 public:
  /// Builds the index.  Requires dim() <= kMaxDim and a root of positive
  /// width in every dimension.  Points are discretized to
  /// L = min(kTotalBits/dim, 63) bits per dimension; points outside the
  /// root box are clamped to it.  Coordinates must not be NaN.
  MortonIndex(const PointSet& points, const Box& root);

  /// Largest dimensionality the key interleave supports.  Callers that
  /// take a dimension from untrusted input screen it against this.
  static constexpr std::size_t kMaxDim = 8;

  /// Total bit budget across dimensions.  126 instead of 128 keeps
  /// (prefix + 1) << shift from overflowing.
  static constexpr int kTotalBits = 126;

  std::size_t dim() const { return dim_; }
  /// Total usable prefix bits (d · L).
  int max_prefix_bits() const { return max_prefix_bits_; }
  std::size_t size() const { return keys_.size(); }
  /// Bytes the sorted keys hold: 16 per point.
  std::size_t MemoryBytes() const { return keys_.size() * sizeof(MortonKey); }

  /// The first position in [begin, end) of the sorted keys whose key is
  /// not below the cell (prefix, bits)'s first key; `end` if none.
  /// Requires 0 < bits and begin <= end <= size().
  std::size_t LowerBound(MortonKey prefix, int bits, std::size_t begin,
                         std::size_t end) const;

  /// Computes the key of a single point (exposed for tests).
  MortonKey KeyOf(std::span<const double> point) const;

 private:
  std::size_t dim_;
  int levels_per_dim_;
  int max_prefix_bits_;
  std::vector<double> root_lo_;
  std::vector<double> inv_width_;  // 1 / side length per dimension.
  std::vector<MortonKey> keys_;    // Sorted ascending.
};

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_MORTON_INDEX_H_
