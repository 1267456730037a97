#include "seq/pst_privtree.h"

#include <vector>

#include "core/privtree_params.h"
#include "core/tree.h"
#include "dp/budget.h"
#include "dp/check.h"
#include "dp/distributions.h"

namespace privtree {

namespace {

/// The sub-domain descriptor of the PST decomposition: the id of the
/// node in the policy's PstModel, which equals its DecompTree id.
struct PstCell {
  NodeId slot = 0;
};

/// DecompositionPolicy over PST nodes; Score is Equation (13) on the exact
/// histogram each split already counted.
class PstPolicy {
 public:
  using Domain = PstCell;

  PstPolicy(const PstOccurrences& occurrences, std::size_t max_predictor_len)
      : growth_(occurrences), max_predictor_len_(max_predictor_len) {}

  Domain Root() const { return PstCell{0}; }

  /// Structural constraints: C1 ($-prefixed predictors cannot grow) and the
  /// public length cap (a predictor longer than l⊤ matches no sequence).
  bool CanSplit(const Domain& cell) const {
    return growth_.CanRefine(cell.slot) &&
           growth_.model().node(cell.slot).predictor.size() <
               max_predictor_len_;
  }

  std::vector<Domain> Split(const Domain& cell) const {
    const NodeId first = growth_.Split(cell.slot);
    std::vector<Domain> children(growth_.model().fanout());
    for (std::size_t c = 0; c < children.size(); ++c) {
      children[c].slot = first + static_cast<NodeId>(c);
    }
    return children;
  }

  double Score(const Domain& cell) const {
    return PstScore(growth_.model().node(cell.slot).hist);
  }

  int fanout() const { return static_cast<int>(growth_.model().fanout()); }

  PstModel TakeModel() { return growth_.TakeModel(); }

 private:
  mutable PstGrowth growth_;
  std::size_t max_predictor_len_;
};

}  // namespace

PrivatePstResult BuildPrivatePst(const SequenceDataset& data, double epsilon,
                                 const PrivatePstOptions& options, Rng& rng) {
  return BuildPrivatePst(PstOccurrences(data, options.l_top), epsilon,
                         options, rng);
}

PrivatePstResult BuildPrivatePst(const PstOccurrences& occurrences,
                                 double epsilon,
                                 const PrivatePstOptions& options, Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_EQ(occurrences.l_top(), options.l_top);
  const std::size_t beta = occurrences.fanout();

  PrivacyBudget budget(epsilon);
  const double tree_fraction = options.tree_budget_fraction > 0.0
                                   ? options.tree_budget_fraction
                                   : 1.0 / static_cast<double>(beta);
  const double tree_epsilon = budget.SpendFraction(tree_fraction);
  const double count_epsilon = budget.SpendRemaining();

  PstPolicy policy(occurrences, options.l_top);

  PrivTreeParams params = PrivTreeParams::ForEpsilon(
      tree_epsilon, static_cast<int>(beta),
      /*sensitivity=*/static_cast<double>(options.l_top));
  params.max_depth = options.max_depth;

  DecompositionStats stats;
  const DecompTree<PstCell> tree = RunPrivTree(policy, params, rng, &stats);
  PrivatePstResult result{policy.TakeModel(), stats};

  // The policy grew the model split by split, in the same breadth-first
  // order RunPrivTree appends DecompTree nodes, so the ids agree one to
  // one and every leaf already holds its exact histogram: each predicted
  // position lies in exactly one leaf's postings.
  PRIVTREE_CHECK_EQ(result.model.size(), tree.size());
  for (std::size_t id = 0; id < tree.size(); ++id) {
    PRIVTREE_CHECK_EQ(tree.node(static_cast<NodeId>(id)).domain.slot,
                      static_cast<NodeId>(id));
  }

  // Theorem 4.2 post-processing: Lap(l⊤/ε₂) on every leaf histogram count.
  const double count_scale =
      static_cast<double>(options.l_top) / count_epsilon;
  for (std::size_t id = 0; id < result.model.size(); ++id) {
    auto& node = result.model.mutable_node(static_cast<NodeId>(id));
    if (!node.children.empty()) continue;
    for (double& h : node.hist) h += SampleLaplace(rng, count_scale);
  }
  result.model.AggregateAndClampHists();
  return result;
}

}  // namespace privtree
