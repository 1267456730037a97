// Spatial decomposition policies: the quadtree-style splits used by the
// paper (Section 3: β = 2^d full bisection) and the round-robin lower-fanout
// variants of Appendix C / Figure 8 (β = 2^i with i < d, bisecting i
// dimensions per split, cycled round-robin).
#ifndef PRIVTREE_SPATIAL_QUADTREE_POLICY_H_
#define PRIVTREE_SPATIAL_QUADTREE_POLICY_H_

#include <vector>

#include "spatial/box.h"
#include "spatial/morton_index.h"

namespace privtree {

/// The sub-domain descriptor used by spatial decompositions: the geometric
/// box, its dyadic address (Morton prefix), and the cell's range of the
/// sorted Morton keys.
///
/// The range is fit-time state only: it is meaningful while the
/// decomposition's MortonIndex is alive, it is never persisted (the
/// envelope codec writes the box alone), and a restored cell leaves it
/// empty.
struct SpatialCell {
  Box box;
  MortonKey prefix = 0;  ///< Low `bits` bits hold the dyadic address.
  int bits = 0;          ///< Number of meaningful bits in `prefix`.
  std::size_t begin = 0;  ///< The cell's keys are [begin, end) of the
  std::size_t end = 0;    ///< index's sorted keys.

  /// Exact number of points in the cell.
  std::size_t count() const { return end - begin; }
};

/// DecompositionPolicy over boxes; Score is the exact point count of the
/// cell, the length of the key range each split already located.
class QuadtreePolicy {
 public:
  using Domain = SpatialCell;

  /// `index` must outlive the policy.  `dims_per_split` (the i of β = 2^i)
  /// must be in [1, dim]; dims_per_split == dim is the standard quadtree.
  QuadtreePolicy(const MortonIndex& index, Box root, int dims_per_split);

  Domain Root() const;

  /// Structural splittability: enough Morton bits remain for one more
  /// split.  With 126 total bits this allows depth 63 for 2-d data —
  /// unreachable in practice (see PrivTreeParams::max_depth).
  bool CanSplit(const Domain& cell) const;

  /// 2^i children: all sign combinations of bisecting the next i
  /// round-robin dimensions.  Child order matches Morton bit order, so the
  /// children's key ranges tile the parent's; their β−1 inner boundaries
  /// are binary searches inside the parent's range.
  std::vector<Domain> Split(const Domain& cell) const;

  /// Exact point count c(v) of the cell (sensitivity 1, monotonic).
  double Score(const Domain& cell) const {
    return static_cast<double>(cell.count());
  }

  int fanout() const { return 1 << dims_per_split_; }
  int dims_per_split() const { return dims_per_split_; }

 private:
  const MortonIndex& index_;
  Box root_;
  int dims_per_split_;
};

}  // namespace privtree

#endif  // PRIVTREE_SPATIAL_QUADTREE_POLICY_H_
