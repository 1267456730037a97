#include "seq/pst_occurrences.h"

#include <algorithm>
#include <ranges>

#include "dp/check.h"

namespace privtree {

namespace {

/// The counting sort behind Refine and RefineRoot.  The root passes run
/// over every offset of the array and skip the $s, which are the only
/// offsets that are not predicted positions.
template <bool kRoot, typename Postings>
void RefineByPrecedingSymbol(const Symbol* padded, std::size_t alphabet_size,
                             const Postings& parent, std::size_t back,
                             std::vector<std::uint32_t>* out,
                             std::vector<std::uint32_t>* bounds,
                             std::vector<std::uint32_t>* child_hists) {
  const std::size_t beta = alphabet_size + 1;
  const Symbol dollar = static_cast<Symbol>(alphabet_size + 1);
  // The preceding symbol is a regular symbol or $ — never &, which only
  // ends a sequence — so min() maps $ to child alphabet_size.
  const auto child_of = [&](std::uint32_t g) -> std::size_t {
    return std::min<std::size_t>(padded[g - back], alphabet_size);
  };

  bounds->assign(beta + 1, 0);
  child_hists->assign(beta * beta, 0);
  std::uint32_t* count = bounds->data() + 1;
  std::uint32_t* hists = child_hists->data();
  for (const std::uint32_t g : parent) {
    if constexpr (kRoot) {
      if (padded[g] == dollar) continue;
    }
    const std::size_t c = child_of(g);
    ++count[c];
    ++hists[c * beta + padded[g]];
  }
  // Prefix sums from the end of `out` turn the counts into child bounds.
  (*bounds)[0] = static_cast<std::uint32_t>(out->size());
  for (std::size_t c = 1; c <= beta; ++c) (*bounds)[c] += (*bounds)[c - 1];
  out->resize((*bounds)[beta]);
  std::vector<std::uint32_t> next(bounds->begin(), bounds->end() - 1);
  std::uint32_t* dst = out->data();
  for (const std::uint32_t g : parent) {
    if constexpr (kRoot) {
      if (padded[g] == dollar) continue;
    }
    dst[next[child_of(g)]++] = g;
  }
}

}  // namespace

PstOccurrences::PstOccurrences(const SequenceDataset& data, std::size_t l_top)
    : alphabet_size_(data.alphabet_size()), l_top_(l_top) {
  PRIVTREE_CHECK_GE(l_top, 1u);
  // $ is alphabet_size + 1, so it must still fit a Symbol.
  PRIVTREE_CHECK_LT(alphabet_size_ + 1,
                    std::size_t{std::numeric_limits<Symbol>::max()});
  // Truncation rule of SequenceDataset::Truncate: a sequence longer than
  // l⊤ (counting &) keeps l⊤ symbols and becomes open-ended.
  const auto kept = [&](std::size_t i) {
    return data.LengthWithEnd(i) > l_top ? std::min(data.length(i), l_top)
                                         : data.length(i);
  };
  const auto ends = [&](std::size_t i) {
    return data.has_end(i) && data.LengthWithEnd(i) <= l_top;
  };
  std::size_t total = 1;  // The trailing sentinel.
  for (std::size_t i = 0; i < data.size(); ++i) {
    total += 1 + kept(i) + (ends(i) ? 1 : 0);
  }
  // Every offset, the sentinel's included, is a u32.
  PRIVTREE_CHECK_LE(total, std::size_t{0xffffffff});
  predicted_positions_ = total - 1 - data.size();
  padded_.reserve(total);
  for (std::size_t i = 0; i < data.size(); ++i) {
    padded_.push_back(dollar_code());
    const auto s = data.sequence(i).first(kept(i));
    padded_.insert(padded_.end(), s.begin(), s.end());
    if (ends(i)) padded_.push_back(end_code());
  }
  padded_.push_back(dollar_code());
}

std::vector<double> PstOccurrences::RootHist() const {
  std::vector<double> hist(fanout(), 0.0);
  for (const Symbol x : padded_) {
    if (x != dollar_code()) hist[x] += 1.0;
  }
  return hist;
}

void PstOccurrences::Refine(std::span<const std::uint32_t> parent,
                            std::size_t predictor_len,
                            std::vector<std::uint32_t>* out,
                            std::vector<std::uint32_t>* bounds,
                            std::vector<std::uint32_t>* child_hists) const {
  RefineByPrecedingSymbol</*kRoot=*/false>(padded_.data(), alphabet_size_,
                                           parent, predictor_len + 1, out,
                                           bounds, child_hists);
}

void PstOccurrences::RefineRoot(std::vector<std::uint32_t>* out,
                                std::vector<std::uint32_t>* bounds,
                                std::vector<std::uint32_t>* child_hists) const {
  const auto offsets = std::views::iota(
      std::uint32_t{0}, static_cast<std::uint32_t>(padded_.size()));
  RefineByPrecedingSymbol</*kRoot=*/true>(padded_.data(), alphabet_size_,
                                          offsets, /*back=*/1, out, bounds,
                                          child_hists);
}

PstGrowth::PstGrowth(const PstOccurrences& occurrences)
    : occurrences_(occurrences), model_(occurrences.alphabet_size()) {
  model_.AddRoot();
  model_.mutable_node(model_.root()).hist = occurrences_.RootHist();
  // A level holds at most every root posting once; sizing both level
  // buffers up front keeps refinement from growing them a level at a time.
  const std::size_t total = occurrences_.predicted_positions();
  ranges_.push_back({0, static_cast<std::uint32_t>(total)});
  current_.reserve(total);
  next_.reserve(total);
}

bool PstGrowth::CanRefine(NodeId id) const {
  const auto& predictor = model_.node(id).predictor;
  return predictor.empty() || predictor.front() != model_.dollar();
}

NodeId PstGrowth::Split(NodeId id) {
  PRIVTREE_CHECK(CanRefine(id));
  const std::size_t depth = model_.node(id).predictor.size();
  PRIVTREE_CHECK_GE(depth, level_);
  if (depth > level_) {
    // The first split one level down: the previous level is done.
    PRIVTREE_CHECK_EQ(depth, level_ + 1);
    current_.swap(next_);
    next_.clear();
    level_ = depth;
  }
  if (level_ == 0) {
    occurrences_.RefineRoot(&next_, &bounds_, &child_hists_);
  } else {
    const Range range = ranges_[static_cast<std::size_t>(id)];
    occurrences_.Refine(std::span<const std::uint32_t>(current_).subspan(
                            range.begin, range.end - range.begin),
                        depth, &next_, &bounds_, &child_hists_);
  }

  const NodeId first = model_.SplitNode(id);
  const std::size_t beta = model_.fanout();
  PRIVTREE_CHECK_EQ(static_cast<std::size_t>(first), ranges_.size());
  for (std::size_t c = 0; c < beta; ++c) {
    ranges_.push_back({bounds_[c], bounds_[c + 1]});
    auto& hist = model_.mutable_node(static_cast<NodeId>(first + c)).hist;
    for (std::size_t x = 0; x < beta; ++x) {
      hist[x] = static_cast<double>(child_hists_[c * beta + x]);
    }
  }
  return first;
}

}  // namespace privtree
