// N-gram — the variable-length n-gram baseline (Chen, Acs, Castelluccia,
// CCS 2012), reimplemented for Section 6.2's comparison.
//
// An exploration tree over grams (strings over I ∪ {&}) is grown level by
// level up to a pre-defined height n_max: each node's occurrence count is
// released with Laplace noise (per-level budget ε/n_max, sensitivity l⊤ per
// level), and a node is extended only when its noisy count clears a
// noise-filtering threshold.  This is exactly the Algorithm-1-style design
// whose dependence on a pre-defined height the paper criticizes: Figure 12
// sweeps n_max.  The released counts define a Markov model (longest-suffix
// backoff) used for string-frequency estimation and synthetic generation.
#ifndef PRIVTREE_SEQ_NGRAM_H_
#define PRIVTREE_SEQ_NGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "seq/model.h"
#include "seq/pst_occurrences.h"
#include "seq/sequence.h"

namespace privtree {

/// Options for NgramModel.
struct NgramOptions {
  /// Maximum gram length n_max (the paper's suggested value is 5).
  std::size_t n_max = 5;
  /// The public sequence-length cap l⊤; the builder truncates its input
  /// at it (SequenceDataset::Truncate's rule).
  std::size_t l_top = 50;
  /// Expansion threshold in units of the per-count noise scale; a node is
  /// extended when its noisy count exceeds factor · scale.
  double threshold_factor = 3.0;
};

/// The released n-gram tree, exposed as a SequenceModel.
class NgramModel : public SequenceModel {
 public:
  /// Builds the ε-DP n-gram model over `data` truncated at l⊤.
  NgramModel(const SequenceDataset& data, double epsilon,
             const NgramOptions& options, Rng& rng);

  /// The same build over a layout already made at options.l_top, which
  /// may be shared with concurrent builds (release::Dataset keeps one per
  /// dataset); bit for bit what the constructor above releases.
  NgramModel(const PstOccurrences& index, double epsilon,
             const NgramOptions& options, Rng& rng);

  std::size_t alphabet_size() const override { return alphabet_size_; }

  /// SequenceModel: longest-suffix backoff over released gram counts.
  void NextDistribution(std::span<const Symbol> context,
                        bool context_starts_sequence,
                        std::vector<double>* dist) const override;

  /// SequenceModel: the noisy unigram count, clamped at zero.
  double InitialCount(Symbol x) const override;

  /// Number of released gram counts.
  std::size_t ReleasedGramCount() const { return nodes_.size() - 1; }

  /// Total tree nodes (the uncounted root plus every released gram).
  std::size_t size() const { return nodes_.size(); }

  /// Height of the released tree: the longest gram's length.
  std::int32_t Height() const;

  /// The released noisy count of node `id` (0 for the root, which carries
  /// no count).
  double NodeCount(NodeId id) const;

  /// Flat parent links (entry i = parent of node i; kInvalidNode for the
  /// root), recovered from the children lists.  Together with NodeCount
  /// this is the whole released state — the envelope codec's row order
  /// (release/sequence_methods.cc).
  std::vector<NodeId> ParentLinks() const;

  /// Restores a released model from (parent, count) rows, the inverse of
  /// ParentLinks()/NodeCount(): children of one extended node are the
  /// alphabet_size+1 consecutive nodes naming it as parent, in prepended-
  /// symbol order (the invariant the building constructor produces).  Any
  /// structural inconsistency — fractured sibling groups, an extended
  /// &-child, a childless root — yields InvalidArgument, never a crash.
  static Result<NgramModel> Restore(std::size_t alphabet_size,
                                    std::span<const NodeId> parents,
                                    std::span<const double> counts);

 private:
  struct GramNode {
    double count = 0.0;            ///< Noisy occurrence count.
    std::vector<NodeId> children;  ///< Size alphabet_size+1 when extended.
  };

  /// Restore() shell: a model with no nodes yet.
  explicit NgramModel(std::size_t alphabet_size)
      : alphabet_size_(alphabet_size) {}

  /// The deepest tree node reachable by following `context`'s suffix, that
  /// has children.  Returns the root when nothing longer matches.
  NodeId BackoffNode(std::span<const Symbol> context) const;

  std::size_t alphabet_size_;
  std::vector<GramNode> nodes_;  ///< nodes_[0] is the (uncounted) root.
};

}  // namespace privtree

#endif  // PRIVTREE_SEQ_NGRAM_H_
