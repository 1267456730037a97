#include "seq/exact_pst.h"

#include <deque>

#include "seq/pst_occurrences.h"

namespace privtree {

PstModel BuildExactPst(const SequenceDataset& data,
                       const ExactPstOptions& options) {
  const PstOccurrences occurrences(data);
  PstGrowth growth(occurrences);

  std::deque<NodeId> queue = {growth.model().root()};
  while (!queue.empty()) {
    const NodeId id = queue.front();
    queue.pop_front();
    const PstNode& node = growth.model().node(id);

    // C1: predictors starting with $ cannot be extended.
    if (!growth.CanRefine(id)) continue;
    if (node.predictor.size() >= options.max_depth) continue;
    // C2 and C3.
    double magnitude = 0.0;
    for (double h : node.hist) magnitude += h;
    if (magnitude < options.min_magnitude) continue;
    if (HistEntropy(node.hist) < options.min_entropy) continue;

    const NodeId first_child = growth.Split(id);
    for (std::size_t c = 0; c < growth.model().fanout(); ++c) {
      queue.push_back(static_cast<NodeId>(first_child + c));
    }
  }
  return growth.TakeModel();
}

}  // namespace privtree
