#include "spatial/spatial_histogram.h"

#include <algorithm>

#include "core/privtree_params.h"
#include "core/simpletree.h"
#include "dp/budget.h"
#include "dp/check.h"
#include "dp/distributions.h"

namespace privtree {

double SpatialHistogram::Query(const Box& q) const {
  if (tree.empty()) return 0.0;
  double ans = 0.0;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    const auto& node = tree.node(v);
    const Box& dom = node.domain.box;
    if (!q.Intersects(dom)) continue;          // Case 1: disjoint.
    if (q.ContainsBox(dom)) {                  // Case 2: fully contained.
      ans += count[v];
      continue;
    }
    if (!node.is_leaf()) {                     // Case 3: partial, internal.
      for (NodeId child : node.children) stack.push_back(child);
      continue;
    }
    // Case 4: partial leaf — uniformity assumption.
    const double volume = dom.Volume();
    if (volume > 0.0) {
      ans += count[v] * (dom.IntersectionVolume(q) / volume);
    }
  }
  return ans;
}

namespace {

/// Propagates noisy leaf counts upward: each internal count becomes the sum
/// of the noisy counts of the leaves below it (Section 3.4).  Relies on
/// children having larger node ids than their parents.
void AggregateLeafCounts(const DecompTree<SpatialCell>& tree,
                         std::vector<double>* count) {
  const auto& nodes = tree.nodes();
  for (std::size_t i = nodes.size(); i-- > 0;) {
    if (nodes[i].is_leaf()) continue;
    double total = 0.0;
    for (NodeId child : nodes[i].children) total += (*count)[child];
    (*count)[i] = total;
  }
}

}  // namespace

SpatialHistogram BuildPrivTreeHistogram(const PointSet& points,
                                        const Box& domain, double epsilon,
                                        const PrivTreeHistogramOptions& options,
                                        Rng& rng) {
  return BuildPrivTreeHistogram(MortonIndex(points, domain), domain, epsilon,
                                options, rng);
}

SpatialHistogram BuildPrivTreeHistogram(const MortonIndex& index,
                                        const Box& domain, double epsilon,
                                        const PrivTreeHistogramOptions& options,
                                        Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_EQ(index.dim(), domain.dim());
  PRIVTREE_CHECK_GT(options.tree_budget_fraction, 0.0);
  PRIVTREE_CHECK_LT(options.tree_budget_fraction, 1.0);
  const int dims_per_split =
      options.dims_per_split > 0 ? options.dims_per_split
                                 : static_cast<int>(domain.dim());

  QuadtreePolicy policy(index, domain, dims_per_split);

  PrivacyBudget budget(epsilon);
  const double tree_epsilon = budget.SpendFraction(options.tree_budget_fraction);
  const double count_epsilon = budget.SpendRemaining();

  PrivTreeParams params =
      PrivTreeParams::ForEpsilon(tree_epsilon, policy.fanout());
  params.max_depth = options.max_depth;

  SpatialHistogram hist;
  hist.tree = RunPrivTree(policy, params, rng, &hist.stats);

  // Post-processing: noisy leaf counts with the remaining budget.  One point
  // lies in exactly one leaf, so the leaf-count vector has sensitivity 1.
  // The exact counts are the key ranges the decomposition located.
  hist.count.assign(hist.tree.size(), 0.0);
  const double count_scale = 1.0 / count_epsilon;
  for (NodeId leaf : hist.tree.LeafIds()) {
    const double exact =
        static_cast<double>(hist.tree.node(leaf).domain.count());
    hist.count[leaf] = exact + SampleLaplace(rng, count_scale);
  }
  AggregateLeafCounts(hist.tree, &hist.count);
  return hist;
}

SpatialHistogram BuildSimpleTreeHistogram(
    const PointSet& points, const Box& domain, double epsilon,
    const SimpleTreeHistogramOptions& options, Rng& rng) {
  return BuildSimpleTreeHistogram(MortonIndex(points, domain), domain,
                                  epsilon, options, rng);
}

SpatialHistogram BuildSimpleTreeHistogram(
    const MortonIndex& index, const Box& domain, double epsilon,
    const SimpleTreeHistogramOptions& options, Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_EQ(index.dim(), domain.dim());
  const int dims_per_split =
      options.dims_per_split > 0 ? options.dims_per_split
                                 : static_cast<int>(domain.dim());

  QuadtreePolicy policy(index, domain, dims_per_split);

  SimpleTreeParams params =
      SimpleTreeParams::ForEpsilon(epsilon, options.height);
  params.theta = options.theta;

  auto result = RunSimpleTree(policy, params, rng);
  SpatialHistogram hist;
  hist.tree = std::move(result.tree);
  hist.count = std::move(result.noisy_score);
  hist.count.resize(hist.tree.size(), 0.0);
  hist.stats.nodes_visited = hist.tree.size();
  hist.stats.height = hist.tree.Height();
  return hist;
}

}  // namespace privtree
