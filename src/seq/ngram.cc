#include "seq/ngram.h"

#include <algorithm>
#include <deque>
#include <ranges>
#include <string>
#include <utility>

#include "dp/check.h"
#include "dp/distributions.h"

namespace privtree {

namespace {

/// Counting-sorts gram postings (offsets of a gram's first symbol in the
/// padded array) by the symbol `shift` places on, appending them to `out`;
/// child c gets (*out)[bounds[c], bounds[c+1]).  Postings whose next symbol
/// is $ — past the end of their sequence, the trailing sentinel included —
/// are dropped, so the unigrams are every offset refined at shift 0.
template <typename Grams>
std::vector<std::uint32_t> RefineGrams(const PstOccurrences& index,
                                       const Grams& grams, std::size_t shift,
                                       std::vector<std::uint32_t>* out) {
  const std::size_t beta = index.fanout();
  const Symbol* padded = index.padded().data();
  std::vector<std::uint32_t> bounds(beta + 1, 0);
  for (const std::uint32_t g : grams) {
    const Symbol next = padded[g + shift];
    if (next < beta) ++bounds[next + 1];
  }
  bounds[0] = static_cast<std::uint32_t>(out->size());
  for (std::size_t c = 1; c <= beta; ++c) bounds[c] += bounds[c - 1];
  out->resize(bounds[beta]);
  std::vector<std::uint32_t> cursor(bounds.begin(), bounds.end() - 1);
  std::uint32_t* dst = out->data();
  for (const std::uint32_t g : grams) {
    const Symbol next = padded[g + shift];
    if (next < beta) dst[cursor[next]++] = g;
  }
  return bounds;
}

}  // namespace

NgramModel::NgramModel(const SequenceDataset& data, double epsilon,
                       const NgramOptions& options, Rng& rng)
    : NgramModel(PstOccurrences(data, options.l_top), epsilon, options, rng) {}

NgramModel::NgramModel(const PstOccurrences& index, double epsilon,
                       const NgramOptions& options, Rng& rng)
    : alphabet_size_(index.alphabet_size()) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_GE(options.n_max, 1u);
  PRIVTREE_CHECK_EQ(index.l_top(), options.l_top);
  const std::size_t beta = index.fanout();

  const double scale = static_cast<double>(options.l_top) *
                       static_cast<double>(options.n_max) / epsilon;
  const double threshold = options.threshold_factor * scale;

  nodes_.push_back(GramNode{});  // Root.

  struct Pending {
    NodeId node;
    std::size_t level;
    bool ends_with_end;  ///< The gram's last symbol is & (never extended).
    std::uint32_t begin;  ///< Postings range in the level's buffer.
    std::uint32_t end;
  };
  std::deque<Pending> queue;
  // Postings of the grams of length `level` and of the level below it; the
  // queue visits levels in order, so only these two are ever live.  Each
  // holds every predicted position at most once.
  std::vector<std::uint32_t> current;
  std::vector<std::uint32_t> next;
  current.reserve(index.predicted_positions());
  next.reserve(index.predicted_positions());
  std::size_t level = 1;

  // Appends the beta children of `parent` (gram length `child_level`),
  // their postings at [bounds[c], bounds[c+1]).
  const auto add_children = [&](NodeId parent, std::size_t child_level,
                                const std::vector<std::uint32_t>& bounds) {
    nodes_[static_cast<std::size_t>(parent)].children.resize(beta);
    for (std::size_t c = 0; c < beta; ++c) {
      const NodeId id = static_cast<NodeId>(nodes_.size());
      nodes_.push_back(GramNode{});
      nodes_[static_cast<std::size_t>(parent)].children[c] = id;
      queue.push_back({id, child_level, c == index.end_code(), bounds[c],
                       bounds[c + 1]});
    }
  };

  // Level 1: all unigrams (including &), by the symbol at each predicted
  // position.
  const auto offsets = std::views::iota(
      std::uint32_t{0}, static_cast<std::uint32_t>(index.padded().size()));
  add_children(0, 1, RefineGrams(index, offsets, 0, &current));

  while (!queue.empty()) {
    const Pending pending = queue.front();
    queue.pop_front();
    if (pending.level > level) {
      PRIVTREE_CHECK_EQ(pending.level, level + 1);
      current.swap(next);
      next.clear();
      level = pending.level;
    }
    const double noisy =
        static_cast<double>(pending.end - pending.begin) +
        SampleLaplace(rng, scale);
    nodes_[static_cast<std::size_t>(pending.node)].count = noisy;

    // Extend?  Grams ending in & cannot be extended (structural), height is
    // capped at n_max (structural), and the noisy count must clear the
    // noise-filtering threshold (the private decision).
    if (pending.ends_with_end) continue;
    if (pending.level >= options.n_max) continue;
    if (noisy <= threshold) continue;

    // Refine into children by the next symbol.
    const std::span<const std::uint32_t> grams(current.data() + pending.begin,
                                               pending.end - pending.begin);
    add_children(pending.node, pending.level + 1,
                 RefineGrams(index, grams, pending.level, &next));
  }
}

NodeId NgramModel::BackoffNode(std::span<const Symbol> context) const {
  // Try suffixes of the context from longest (n_max−1) to empty; return the
  // deepest node that exists and has children.
  const std::size_t max_ctx =
      std::min(context.size(), std::size_t{16});  // Grams are short anyway.
  for (std::size_t len = max_ctx; len > 0; --len) {
    NodeId v = 0;
    bool ok = true;
    for (std::size_t i = context.size() - len; i < context.size(); ++i) {
      const auto& node = nodes_[static_cast<std::size_t>(v)];
      if (node.children.empty()) {
        ok = false;
        break;
      }
      v = node.children[context[i]];
    }
    if (ok && !nodes_[static_cast<std::size_t>(v)].children.empty()) {
      return v;
    }
  }
  return 0;
}

void NgramModel::NextDistribution(std::span<const Symbol> context,
                                  bool /*context_starts_sequence*/,
                                  std::vector<double>* dist) const {
  dist->assign(alphabet_size_ + 1, 0.0);
  const NodeId v = BackoffNode(context);
  const auto& node = nodes_[static_cast<std::size_t>(v)];
  PRIVTREE_CHECK(!node.children.empty());  // The root always has children.
  for (std::size_t c = 0; c <= alphabet_size_; ++c) {
    (*dist)[c] = std::max(
        nodes_[static_cast<std::size_t>(node.children[c])].count, 0.0);
  }
}

std::int32_t NgramModel::Height() const {
  // Depth of each node is depth(parent) + 1; ids are topologically ordered
  // (a child's id always exceeds its parent's), so one forward pass works.
  std::vector<std::int32_t> depth(nodes_.size(), 0);
  std::int32_t height = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const NodeId child : nodes_[i].children) {
      depth[static_cast<std::size_t>(child)] = depth[i] + 1;
      height = std::max(height, depth[i] + 1);
    }
  }
  return height;
}

double NgramModel::NodeCount(NodeId id) const {
  return nodes_[static_cast<std::size_t>(id)].count;
}

std::vector<NodeId> NgramModel::ParentLinks() const {
  std::vector<NodeId> parents(nodes_.size(), kInvalidNode);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const NodeId child : nodes_[i].children) {
      parents[static_cast<std::size_t>(child)] = static_cast<NodeId>(i);
    }
  }
  return parents;
}

Result<NgramModel> NgramModel::Restore(std::size_t alphabet_size,
                                       std::span<const NodeId> parents,
                                       std::span<const double> counts) {
  if (alphabet_size < 1 || alphabet_size > kMaxAlphabetSize) {
    return Status::InvalidArgument("ngram restore: bad alphabet size");
  }
  const std::size_t beta = alphabet_size + 1;
  const std::size_t n = parents.size();
  if (counts.size() != n) {
    return Status::InvalidArgument("ngram restore: row count mismatch");
  }
  // The building constructor always extends the root, so a released model
  // has at least the beta unigram children.
  if (n < 1 + beta || (n - 1) % beta != 0) {
    return Status::InvalidArgument(
        "ngram restore: node count inconsistent with fanout");
  }
  if (parents[0] != kInvalidNode) {
    return Status::InvalidArgument("ngram restore: root must have parent -1");
  }
  NgramModel model(alphabet_size);
  model.nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) model.nodes_[i].count = counts[i];
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId p = parents[i];
    if (p < 0 || static_cast<std::size_t>(p) >= i) {
      return Status::InvalidArgument("ngram restore: bad parent at node " +
                                     std::to_string(i));
    }
    // Children of one parent arrive consecutively in groups of beta; the
    // first of each group claims the (so far childless) parent.
    if ((i - 1) % beta == 0) {
      auto& node = model.nodes_[static_cast<std::size_t>(p)];
      if (!node.children.empty()) {
        return Status::InvalidArgument(
            "ngram restore: parent extended twice at node " +
            std::to_string(i));
      }
      // An &-child (sibling index alphabet_size within its own group) is
      // structurally unextendable.
      if (p != 0) {
        const NodeId q = parents[static_cast<std::size_t>(p)];
        const NodeId first_sibling =
            model.nodes_[static_cast<std::size_t>(q)].children.front();
        if (static_cast<std::size_t>(p - first_sibling) == alphabet_size) {
          return Status::InvalidArgument(
              "ngram restore: extended &-gram at node " + std::to_string(p));
        }
      }
      node.children.reserve(beta);
      for (std::size_t c = 0; c < beta; ++c) {
        node.children.push_back(static_cast<NodeId>(i + c));
      }
    } else if (parents[i] != parents[i - 1]) {
      return Status::InvalidArgument(
          "ngram restore: fractured sibling group at node " +
          std::to_string(i));
    }
  }
  return model;
}

double NgramModel::InitialCount(Symbol x) const {
  PRIVTREE_CHECK_LT(x, alphabet_size_);
  const auto& root = nodes_[0];
  return std::max(
      nodes_[static_cast<std::size_t>(root.children[x])].count, 0.0);
}

}  // namespace privtree
