#include "spatial/quadtree_policy.h"

#include "dp/check.h"

namespace privtree {

QuadtreePolicy::QuadtreePolicy(const MortonIndex& index, Box root,
                               int dims_per_split)
    : index_(index), root_(std::move(root)), dims_per_split_(dims_per_split) {
  PRIVTREE_CHECK_GE(dims_per_split, 1);
  PRIVTREE_CHECK_LE(static_cast<std::size_t>(dims_per_split), root_.dim());
  PRIVTREE_CHECK_EQ(root_.dim(), index.dim());
}

QuadtreePolicy::Domain QuadtreePolicy::Root() const {
  return SpatialCell{root_, 0, 0, 0, index_.size()};
}

bool QuadtreePolicy::CanSplit(const Domain& cell) const {
  return cell.bits + dims_per_split_ <= index_.max_prefix_bits();
}

std::vector<QuadtreePolicy::Domain> QuadtreePolicy::Split(
    const Domain& cell) const {
  PRIVTREE_CHECK(CanSplit(cell));
  const std::size_t dim = root_.dim();
  const int bits = cell.bits + dims_per_split_;
  const std::size_t fanout = std::size_t{1} << dims_per_split_;
  std::vector<Domain> children(fanout);
  for (std::size_t m = 0; m < fanout; ++m) {
    Domain& child = children[m];
    child.prefix = (cell.prefix << dims_per_split_) | m;
    child.bits = bits;
    // The next dimensions to bisect follow the global round-robin bit
    // order: after `bits` consumed bits, step s bisects dimension
    // (bits + s) mod d, and its half is the s-th most significant of the
    // appended bits.
    child.box = cell.box;
    for (int step = 0; step < dims_per_split_; ++step) {
      const std::size_t j = (cell.bits + step) % dim;
      const int half = (m >> (dims_per_split_ - 1 - step)) & 1;
      child.box.Halve(j, half);
    }
    // Children's key ranges tile the parent's in child order.
    child.begin = m == 0 ? cell.begin
                         : index_.LowerBound(child.prefix, bits, cell.begin,
                                             cell.end);
  }
  for (std::size_t m = 0; m + 1 < fanout; ++m) {
    children[m].end = children[m + 1].begin;
  }
  children[fanout - 1].end = cell.end;
  return children;
}

}  // namespace privtree
