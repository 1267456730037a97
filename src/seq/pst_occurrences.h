// The flat occurrence index shared by the PST and n-gram builders.
//
// Layout.  Every sequence is laid out once, back to back, as its padded
// form $ x1 ... xl [&] in one contiguous Symbol array, followed by one
// trailing $ sentinel.  $ and & get distinct codes: & is alphabet_size
// (the histogram slot of the end marker) and $ is alphabet_size + 1.  The
// public length cap l⊤ is applied while the array is built: a sequence
// whose paper length (symbols plus &) exceeds l⊤ keeps its first l⊤
// symbols and loses its & — the same rule as SequenceDataset::Truncate, so
// pre-truncated input is laid out unchanged.
//
// Postings.  A posting is a u32 offset g into that array.  For a PST node
// with predictor w, its postings are the "predicted positions" g whose |w|
// preceding symbols equal w; the node's prediction histogram counts
// padded[g].  Every offset, including the sentinel, must fit a u32; that
// one total is checked when the index is built.  The root's postings are
// every offset whose symbol is not $, so they are not stored: the root
// histogram and the root split scan the array in offset order instead,
// which yields the same postings in the same order.  The index is thus
// the array alone, 2 bytes per padded symbol, and depends only on the
// dataset and l⊤: release::Dataset keeps one and every fit of that l⊤
// reads it (the per-fit postings live in PstGrowth and the n-gram
// builder).
//
// Refinement.  A child prepends one symbol to its parent's predictor, so
// the child postings are the parent's, counting-sorted by the symbol
// padded[g − |w| − 1] into one contiguous buffer; the children's
// histograms are counted in the same pass.  Predictors that start with $
// never refine (condition C1): a predictor without $ covers only regular
// symbols of one sequence, so g − |w| − 1 never leaves that sequence's
// padded form (at worst it reads its $), while one step past a $-prefixed
// predictor would read the previous sequence.
#ifndef PRIVTREE_SEQ_PST_OCCURRENCES_H_
#define PRIVTREE_SEQ_PST_OCCURRENCES_H_

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/tree.h"
#include "seq/pst.h"
#include "seq/sequence.h"

namespace privtree {

/// The flat padded-symbol array of one dataset at one length cap.
class PstOccurrences {
 public:
  /// No length cap: every sequence is laid out whole.
  static constexpr std::size_t kNoLengthCap =
      std::numeric_limits<std::size_t>::max();

  /// Lays out `data` truncated at `l_top` (>= 1).
  explicit PstOccurrences(const SequenceDataset& data,
                          std::size_t l_top = kNoLengthCap);

  std::size_t alphabet_size() const { return alphabet_size_; }
  /// The length cap the layout was built with.
  std::size_t l_top() const { return l_top_; }
  /// Fanout β = alphabet_size + 1 (children and histogram slots alike).
  std::size_t fanout() const { return alphabet_size_ + 1; }
  /// The code of & in padded(), which is also its histogram slot.
  Symbol end_code() const { return static_cast<Symbol>(alphabet_size_); }
  /// The code of $ in padded().
  Symbol dollar_code() const {
    return static_cast<Symbol>(alphabet_size_ + 1);
  }

  /// The padded sequences plus the trailing $ sentinel.
  std::span<const Symbol> padded() const { return padded_; }

  /// Bytes the layout holds: 2 per padded symbol.
  std::size_t MemoryBytes() const { return padded_.size() * sizeof(Symbol); }

  /// The root's postings: every predicted position (all offsets except
  /// the $s).
  std::size_t predicted_positions() const { return predicted_positions_; }

  /// The root's prediction histogram (size fanout()): the count of each
  /// symbol over every predicted position.
  std::vector<double> RootHist() const;

  /// Counting-sorts `parent` — the postings of a predictor of length
  /// `predictor_len` that does not start with $ — by preceding symbol and
  /// appends them to `out`: child c (c = alphabet_size means $) gets
  /// (*out)[bounds[c], bounds[c+1]).  `child_hists` becomes the β·β exact
  /// child histograms, row c for child c, counted in the same pass.
  void Refine(std::span<const std::uint32_t> parent, std::size_t predictor_len,
              std::vector<std::uint32_t>* out,
              std::vector<std::uint32_t>* bounds,
              std::vector<std::uint32_t>* child_hists) const;

  /// Refine applied to the root (the empty predictor), whose postings are
  /// every predicted position in offset order.
  void RefineRoot(std::vector<std::uint32_t>* out,
                  std::vector<std::uint32_t>* bounds,
                  std::vector<std::uint32_t>* child_hists) const;

 private:
  std::size_t alphabet_size_;
  std::size_t l_top_;
  std::size_t predicted_positions_ = 0;
  std::vector<Symbol> padded_;
};

/// Grows a PstModel breadth first over a PstOccurrences index, with the
/// exact prediction histogram on every node.  Only two tree levels of
/// postings are live at a time: the level being split and the next one.
/// The postings are per growth; the PstOccurrences it reads may be shared
/// by any number of concurrent growths.
class PstGrowth {
 public:
  /// Creates the root.  `occurrences` must outlive the growth.
  explicit PstGrowth(const PstOccurrences& occurrences);

  const PstModel& model() const { return model_; }
  PstModel TakeModel() { return std::move(model_); }

  /// Whether `id` may split structurally: its predictor does not start
  /// with $ (condition C1).
  bool CanRefine(NodeId id) const;

  /// Splits leaf `id` (CanRefine) and returns the first of its β children,
  /// whose histograms are exact.  Nodes must be split in nondecreasing
  /// depth order, as a breadth-first walk does.
  NodeId Split(NodeId id);

 private:
  struct Range {
    std::uint32_t begin;
    std::uint32_t end;
  };

  const PstOccurrences& occurrences_;
  PstModel model_;
  std::vector<Range> ranges_;  ///< Per node, into its level's buffer.
  std::size_t level_ = 0;      ///< Depth of the nodes in `current_`.
  std::vector<std::uint32_t> current_;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> bounds_;       ///< Refine scratch.
  std::vector<std::uint32_t> child_hists_;  ///< Refine scratch.
};

}  // namespace privtree

#endif  // PRIVTREE_SEQ_PST_OCCURRENCES_H_
