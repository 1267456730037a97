// KD — a private k-d-tree decomposition in the style of Xiao, Xiong, Yuan
// (Secure Data Management 2010), cited as [51] in the paper's related work
// and reported there to be inferior to UG/AG.  Included as an additional
// baseline/ablation.
//
// Construction: a fixed-height binary tree; at each node the split
// coordinate of the current dimension (round-robin) is chosen as a *noisy
// median* via the exponential mechanism, after which noisy counts are
// released for the leaves.  The split-selection budget and the count budget
// each get half of ε; splits at depth i consume ε₁/h (one tuple affects one
// node per level, so per-level selections compose in parallel across
// siblings).
#ifndef PRIVTREE_HIST_KDTREE_H_
#define PRIVTREE_HIST_KDTREE_H_

#include <cstdint>
#include <vector>

#include "core/tree.h"
#include "dp/rng.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {

/// Options for KdTreeHistogram.
struct KdTreeOptions {
  /// Number of split levels (the tree has 2^height leaves).
  std::int32_t height = 8;
  /// Fraction of ε spent choosing split coordinates.
  double split_budget_fraction = 0.5;
};

/// A private k-d-tree histogram.
class KdTreeHistogram {
 public:
  KdTreeHistogram(const PointSet& points, const Box& domain, double epsilon,
                  const KdTreeOptions& options, Rng& rng);

  /// Estimated number of points in `q` (leaf traversal with uniform
  /// fractions, as for the other tree histograms).
  double Query(const Box& q) const;

  std::size_t LeafCount() const { return tree_.LeafCount(); }
  const DecompTree<Box>& tree() const { return tree_; }
  /// Released noisy counts, indexed by node id.
  const std::vector<double>& counts() const { return count_; }

 private:
  DecompTree<Box> tree_;
  std::vector<double> count_;  ///< Released noisy counts per node.
};

/// Selects an ε-DP approximate median of `values` within [lo, hi] via the
/// exponential mechanism over inter-order-statistic intervals (rank
/// utility, sensitivity 1).  Exposed for tests.
double PrivateMedianSplit(const std::vector<double>& values, double lo,
                          double hi, double epsilon, Rng& rng);

}  // namespace privtree

#endif  // PRIVTREE_HIST_KDTREE_H_
