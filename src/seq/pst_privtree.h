// PrivTree for sequence data (Section 4.2): private construction of a
// prediction suffix tree.
//
// The decomposition policy scores a node by Equation (13),
// c(v) = ‖hist(v)‖₁ − max_x hist(v)[x], which is monotonic (Lemma 4.1) and
// changes by at most l⊤ under insertion of one (truncated) sequence, so
// PrivTree runs with noise scale λ >= (2β−1)/(β−1) · l⊤/ε₁ (Theorem 4.1).
// Post-processing adds Lap(l⊤/ε₂) noise to every leaf histogram count
// (Theorem 4.2), aggregates internal histograms from the leaves and zeroes
// negatives.  Following Section 4.2 the default budget split is
// ε₁ = ε/β for the tree and ε₂ = ε·(β−1)/β for the counts.
//
// Algorithm 2 scores every node exactly once, and the exact counts come
// from the decomposition itself: each split counts its children's
// histograms while it partitions the parent's postings (seq/
// pst_occurrences.h), so the leaves' exact histograms — the input of the
// Laplace post-processing — are already in hand when the tree is done.
#ifndef PRIVTREE_SEQ_PST_PRIVTREE_H_
#define PRIVTREE_SEQ_PST_PRIVTREE_H_

#include <cstdint>

#include "core/privtree.h"
#include "dp/rng.h"
#include "seq/pst.h"
#include "seq/pst_occurrences.h"
#include "seq/sequence.h"

namespace privtree {

/// Options for BuildPrivatePst.
struct PrivatePstOptions {
  /// The public sequence-length cap l⊤.  The builder truncates its input
  /// at l⊤ by the rule of SequenceDataset::Truncate; input truncated
  /// beforehand is left as it is.
  std::size_t l_top = 50;
  /// Budget fraction for the tree shape; 0 selects the paper's 1/β.
  double tree_budget_fraction = 0.0;
  /// Structural recursion cap forwarded to PrivTreeParams.
  std::int32_t max_depth = 512;
};

/// Result of the private construction.
struct PrivatePstResult {
  PstModel model;
  DecompositionStats stats;
};

/// Builds an ε-differentially private PST over `data`.
PrivatePstResult BuildPrivatePst(const SequenceDataset& data, double epsilon,
                                 const PrivatePstOptions& options, Rng& rng);

/// The same build over a layout already made at options.l_top, which may
/// be shared with concurrent builds (release::Dataset keeps one per
/// dataset); bit for bit what the overload above releases.
PrivatePstResult BuildPrivatePst(const PstOccurrences& occurrences,
                                 double epsilon,
                                 const PrivatePstOptions& options, Rng& rng);

}  // namespace privtree

#endif  // PRIVTREE_SEQ_PST_PRIVTREE_H_
