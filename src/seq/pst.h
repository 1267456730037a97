// Prediction suffix trees (PSTs) — the variable-length Markov model
// representation of Section 4.1 (Ron, Singer, Tishby 1996).
//
// Each node v carries a predictor string dom(v) over I ∪ {$} and a
// prediction histogram hist(v) with one count per symbol in I ∪ {&}.
// Children prepend a symbol to the parent's predictor, so looking up the
// deepest node whose predictor suffixes a context walks the tree by the
// context's symbols right-to-left.
#ifndef PRIVTREE_SEQ_PST_H_
#define PRIVTREE_SEQ_PST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "dp/rng.h"
#include "seq/model.h"
#include "seq/sequence.h"

namespace privtree {

/// One PST node.  `children`, when non-empty, has alphabet_size + 1 entries:
/// index c < alphabet_size prepends symbol c, index alphabet_size prepends $.
struct PstNode {
  std::vector<Symbol> predictor;  ///< dom(v); most recent symbol last.
  std::vector<double> hist;       ///< Size alphabet_size + 1; last slot = &.
  std::vector<NodeId> children;   ///< Empty for leaves.
};

/// A complete PST with (possibly noisy) prediction histograms, supporting
/// the two query types of Section 4.1: string-frequency estimation and
/// synthetic-sequence sampling (both inherited from SequenceModel).
class PstModel : public SequenceModel {
 public:
  explicit PstModel(std::size_t alphabet_size);

  std::size_t alphabet_size() const override { return alphabet_size_; }
  /// The symbol value encoding $ inside predictor strings.
  Symbol dollar() const { return static_cast<Symbol>(alphabet_size_); }
  /// Fanout β = |I| + 1.
  std::size_t fanout() const { return alphabet_size_ + 1; }

  std::size_t size() const { return nodes_.size(); }
  const PstNode& node(NodeId id) const;
  PstNode& mutable_node(NodeId id);
  NodeId root() const { return 0; }

  /// Creates the root (predictor ∅, zero histogram).  Must be first.
  NodeId AddRoot();

  /// Splits `parent`: creates the β children (predictors = symbol·dom(v)).
  /// Returns the id of the first child; the others follow consecutively.
  NodeId SplitNode(NodeId parent);

  /// The deepest node whose predictor is a suffix of `context`
  /// (right-aligned).  When `context_starts_sequence` is true the walk may
  /// additionally consume the $ marker preceding context[0].
  NodeId LongestSuffixNode(std::span<const Symbol> context,
                           bool context_starts_sequence) const;

  /// SequenceModel: the next-symbol weights are the histogram of the
  /// deepest node whose predictor suffixes the context.
  void NextDistribution(std::span<const Symbol> context,
                        bool context_starts_sequence,
                        std::vector<double>* dist) const override;

  /// SequenceModel: hist(root)[x].
  double InitialCount(Symbol x) const override;

  /// Sets every internal histogram to the sum of the histograms of the
  /// leaves below it, then clamps negative entries to zero everywhere (the
  /// post-processing order of Section 4.2).
  void AggregateAndClampHists();

  /// Number of leaves.
  std::size_t LeafCount() const;

 private:
  std::size_t alphabet_size_;
  std::vector<PstNode> nodes_;
};

/// Shannon entropy (nats) of a histogram viewed as a distribution; 0 for
/// empty histograms.  Used by condition C3 of Section 4.2.
double HistEntropy(const std::vector<double>& hist);

/// The paper's PST score function, Equation (13):
/// c(v) = ‖hist(v)‖₁ − max_x hist(v)[x].  Monotonic (Lemma 4.1).
double PstScore(const std::vector<double>& hist);

}  // namespace privtree

#endif  // PRIVTREE_SEQ_PST_H_
