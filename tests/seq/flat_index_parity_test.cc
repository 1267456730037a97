// Parity of the flat-index sequence builders with test-local copies of the
// builders they replaced: (seq, pos) postings refined into per-child
// vectors, a second histogram pass per scored node, the LongestSuffixNode
// pass for the private PST's leaf histograms, the per-level GramPosting
// buckets of the n-gram model, and an explicit SequenceDataset::Truncate
// before every private fit.  The released models must agree bit for bit
// across alphabets 1–9, empty, open-ended and exactly-l⊤ sequences, both
// depth caps, several ε and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/privtree.h"
#include "core/privtree_params.h"
#include "dp/budget.h"
#include "dp/distributions.h"
#include "dp/rng.h"
#include "seq/exact_pst.h"
#include "seq/ngram.h"
#include "seq/pst.h"
#include "seq/pst_privtree.h"
#include "seq/sequence.h"

namespace privtree {
namespace {
namespace legacy {

struct PstPosting {
  std::uint32_t seq;
  std::uint16_t pos;
};

class PstOccurrences {
 public:
  explicit PstOccurrences(const SequenceDataset& data) : data_(data) {}

  Symbol dollar() const { return static_cast<Symbol>(data_.alphabet_size()); }

  Symbol SymbolAt(std::uint32_t seq, std::int32_t pos) const {
    if (pos == 0) return dollar();
    const auto s = data_.sequence(seq);
    const auto index = static_cast<std::size_t>(pos - 1);
    if (index < s.size()) return s[index];
    return static_cast<Symbol>(data_.alphabet_size());  // &.
  }

  std::vector<PstPosting> RootPostings() const {
    std::vector<PstPosting> out;
    for (std::size_t i = 0; i < data_.size(); ++i) {
      const std::size_t last = data_.length(i) + (data_.has_end(i) ? 1 : 0);
      for (std::size_t p = 1; p <= last; ++p) {
        out.push_back(PstPosting{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint16_t>(p)});
      }
    }
    return out;
  }

  std::vector<std::vector<PstPosting>> RefineAll(
      const std::vector<PstPosting>& parent,
      std::size_t predictor_len) const {
    std::vector<std::vector<PstPosting>> out(data_.alphabet_size() + 1);
    for (const PstPosting& posting : parent) {
      const std::int32_t before = static_cast<std::int32_t>(posting.pos) -
                                  static_cast<std::int32_t>(predictor_len) -
                                  1;
      if (before < 0) continue;
      out[SymbolAt(posting.seq, before)].push_back(posting);
    }
    return out;
  }

  std::vector<double> HistOf(const std::vector<PstPosting>& postings) const {
    std::vector<double> hist(data_.alphabet_size() + 1, 0.0);
    for (const PstPosting& posting : postings) {
      hist[SymbolAt(posting.seq, posting.pos)] += 1.0;
    }
    return hist;
  }

  const SequenceDataset& data() const { return data_; }

 private:
  const SequenceDataset& data_;
};

struct PstCell {
  std::vector<Symbol> predictor;
  std::int32_t slot = -1;
};

class PstPolicy {
 public:
  using Domain = PstCell;

  PstPolicy(const PstOccurrences& occurrences, std::size_t max_predictor_len)
      : occurrences_(occurrences), max_predictor_len_(max_predictor_len) {
    slots_.push_back(occurrences_.RootPostings());
  }

  Domain Root() const { return PstCell{{}, 0}; }

  bool CanSplit(const Domain& cell) const {
    if (!cell.predictor.empty() &&
        cell.predictor.front() == occurrences_.dollar()) {
      return false;
    }
    return cell.predictor.size() < max_predictor_len_;
  }

  std::vector<Domain> Split(const Domain& cell) const {
    auto child_postings = occurrences_.RefineAll(
        slots_[static_cast<std::size_t>(cell.slot)], cell.predictor.size());
    std::vector<Domain> children;
    for (std::size_t c = 0; c < child_postings.size(); ++c) {
      PstCell child;
      child.predictor.push_back(static_cast<Symbol>(c));
      child.predictor.insert(child.predictor.end(), cell.predictor.begin(),
                             cell.predictor.end());
      child.slot = static_cast<std::int32_t>(slots_.size());
      slots_.push_back(std::move(child_postings[c]));
      children.push_back(std::move(child));
    }
    return children;
  }

  double Score(const Domain& cell) const {
    return PstScore(
        occurrences_.HistOf(slots_[static_cast<std::size_t>(cell.slot)]));
  }

  int fanout() const {
    return static_cast<int>(occurrences_.data().alphabet_size()) + 1;
  }

 private:
  const PstOccurrences& occurrences_;
  std::size_t max_predictor_len_;
  mutable std::vector<std::vector<PstPosting>> slots_;
};

/// The replaced BuildPrivatePst; `data` must be truncated at l⊤.
PrivatePstResult BuildPrivatePst(const SequenceDataset& data, double epsilon,
                                 const PrivatePstOptions& options, Rng& rng) {
  const std::size_t beta = data.alphabet_size() + 1;
  PrivacyBudget budget(epsilon);
  const double tree_fraction = options.tree_budget_fraction > 0.0
                                   ? options.tree_budget_fraction
                                   : 1.0 / static_cast<double>(beta);
  const double tree_epsilon = budget.SpendFraction(tree_fraction);
  const double count_epsilon = budget.SpendRemaining();

  const PstOccurrences occurrences(data);
  PstPolicy policy(occurrences, options.l_top);
  PrivTreeParams params = PrivTreeParams::ForEpsilon(
      tree_epsilon, static_cast<int>(beta),
      /*sensitivity=*/static_cast<double>(options.l_top));
  params.max_depth = options.max_depth;

  PrivatePstResult result{PstModel(data.alphabet_size()), {}};
  const DecompTree<PstCell> tree =
      RunPrivTree(policy, params, rng, &result.stats);
  result.model.AddRoot();
  for (std::size_t id = 0; id < tree.size(); ++id) {
    if (!tree.node(static_cast<NodeId>(id)).is_leaf()) {
      result.model.SplitNode(static_cast<NodeId>(id));
    }
  }
  // Leaf histograms by walking every predicted position's context.
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto s = data.sequence(i);
    const std::size_t last = s.size() + (data.has_end(i) ? 1 : 0);
    for (std::size_t p = 1; p <= last; ++p) {
      const NodeId leaf = result.model.LongestSuffixNode(
          s.subspan(0, p - 1), /*context_starts_sequence=*/true);
      const Symbol predicted =
          (p <= s.size()) ? s[p - 1]
                          : static_cast<Symbol>(result.model.end_slot());
      result.model.mutable_node(leaf).hist[predicted] += 1.0;
    }
  }
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

/// The replaced BuildExactPst.
PstModel BuildExactPst(const SequenceDataset& data,
                       const ExactPstOptions& options) {
  PstModel model(data.alphabet_size());
  const PstOccurrences occurrences(data);
  struct Pending {
    NodeId node;
    std::vector<PstPosting> postings;
  };
  std::deque<Pending> queue;
  queue.push_back({model.AddRoot(), occurrences.RootPostings()});
  while (!queue.empty()) {
    Pending current = std::move(queue.front());
    queue.pop_front();
    auto& node = model.mutable_node(current.node);
    node.hist = occurrences.HistOf(current.postings);
    if (!node.predictor.empty() && node.predictor.front() == model.dollar()) {
      continue;
    }
    if (node.predictor.size() >= options.max_depth) continue;
    double magnitude = 0.0;
    for (double h : node.hist) magnitude += h;
    if (magnitude < options.min_magnitude) continue;
    if (HistEntropy(node.hist) < options.min_entropy) continue;
    auto child_postings =
        occurrences.RefineAll(current.postings, node.predictor.size());
    const NodeId first_child = model.SplitNode(current.node);
    for (std::size_t c = 0; c < model.fanout(); ++c) {
      queue.push_back({static_cast<NodeId>(first_child + c),
                       std::move(child_postings[c])});
    }
  }
  return model;
}

/// The replaced n-gram construction, as the (parent, count) rows the
/// envelope persists.  `data` must be truncated at l⊤.
struct NgramRows {
  std::vector<NodeId> parents;
  std::vector<double> counts;
};

NgramRows BuildNgram(const SequenceDataset& data, double epsilon,
                     const NgramOptions& options, Rng& rng) {
  const std::size_t alphabet = data.alphabet_size();
  const std::size_t end_symbol = alphabet;
  struct GramPosting {
    std::uint32_t seq;
    std::uint16_t pos;
  };
  const auto symbol_at = [&](std::uint32_t seq,
                             std::size_t pos) -> std::size_t {
    const auto s = data.sequence(seq);
    if (pos >= 1 && pos <= s.size()) return s[pos - 1];
    if (pos == s.size() + 1 && data.has_end(seq)) return end_symbol;
    return alphabet + 1;
  };
  const double scale = static_cast<double>(options.l_top) *
                       static_cast<double>(options.n_max) / epsilon;
  const double threshold = options.threshold_factor * scale;

  NgramRows rows;
  rows.parents.push_back(kInvalidNode);
  rows.counts.push_back(0.0);
  struct Pending {
    NodeId node;
    std::size_t level;
    bool ends_with_end;
    std::vector<GramPosting> postings;
  };
  std::deque<Pending> queue;
  const auto add_children =
      [&](NodeId parent, std::size_t level,
          std::vector<std::vector<GramPosting>>& buckets) {
        for (std::size_t c = 0; c <= alphabet; ++c) {
          const NodeId id = static_cast<NodeId>(rows.parents.size());
          rows.parents.push_back(parent);
          rows.counts.push_back(0.0);
          queue.push_back({id, level, c == end_symbol, std::move(buckets[c])});
        }
      };
  {
    std::vector<std::vector<GramPosting>> buckets(alphabet + 1);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::size_t last = data.length(i) + (data.has_end(i) ? 1 : 0);
      for (std::size_t p = 1; p <= last; ++p) {
        buckets[symbol_at(static_cast<std::uint32_t>(i), p)].push_back(
            GramPosting{static_cast<std::uint32_t>(i),
                        static_cast<std::uint16_t>(p)});
      }
    }
    add_children(0, 1, buckets);
  }
  while (!queue.empty()) {
    Pending current = std::move(queue.front());
    queue.pop_front();
    const double noisy = static_cast<double>(current.postings.size()) +
                         SampleLaplace(rng, scale);
    rows.counts[static_cast<std::size_t>(current.node)] = noisy;
    if (current.ends_with_end) continue;
    if (current.level >= options.n_max) continue;
    if (noisy <= threshold) continue;
    std::vector<std::vector<GramPosting>> buckets(alphabet + 1);
    for (const GramPosting& posting : current.postings) {
      const std::size_t next =
          symbol_at(posting.seq, posting.pos + current.level);
      if (next > alphabet) continue;
      buckets[next].push_back(posting);
    }
    add_children(current.node, current.level + 1, buckets);
  }
  return rows;
}

}  // namespace legacy

/// Sequences with a Markov bias (so trees grow deep) and every boundary
/// shape: empty, open-ended, exactly l⊤ symbols with &, one past l⊤, and
/// random lengths up to 2·l⊤.
SequenceDataset BoundaryData(std::size_t n, std::size_t alphabet,
                             std::size_t l_top, Rng& rng) {
  SequenceDataset data(alphabet);
  std::vector<Symbol> s;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t len = 0;
    switch (rng.NextBounded(6)) {
      case 0: len = 0; break;
      case 1: len = l_top; break;
      case 2: len = l_top - 1; break;
      case 3: len = l_top + 1; break;
      default: len = rng.NextBounded(2 * l_top + 1); break;
    }
    s.clear();
    Symbol prev = static_cast<Symbol>(rng.NextBounded(alphabet));
    for (std::size_t j = 0; j < len; ++j) {
      prev = rng.NextDouble() < 0.7
                 ? static_cast<Symbol>((prev + 1) % alphabet)
                 : static_cast<Symbol>(rng.NextBounded(alphabet));
      s.push_back(prev);
    }
    data.Add(s, /*has_end=*/rng.NextDouble() < 0.8);
  }
  return data;
}

void ExpectSameModel(const PstModel& want, const PstModel& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t id = 0; id < want.size(); ++id) {
    const PstNode& a = want.node(static_cast<NodeId>(id));
    const PstNode& b = got.node(static_cast<NodeId>(id));
    ASSERT_EQ(a.predictor, b.predictor) << "node " << id;
    ASSERT_EQ(a.children, b.children) << "node " << id;
    // Exact double equality: the histograms must match bit for bit.
    ASSERT_EQ(a.hist, b.hist) << "node " << id;
  }
}

struct ParityCase {
  std::size_t alphabet;
  std::size_t l_top;
  double epsilon;
  std::int32_t max_depth;
  std::uint64_t seed;
};

class FlatIndexParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(FlatIndexParityTest, PrivatePstMatchesLegacyBuilder) {
  const ParityCase& c = GetParam();
  Rng data_rng(c.seed);
  const SequenceDataset raw = BoundaryData(1500, c.alphabet, c.l_top,
                                           data_rng);
  const SequenceDataset truncated = raw.Truncate(c.l_top);
  PrivatePstOptions options;
  options.l_top = c.l_top;
  options.max_depth = c.max_depth;

  Rng want_rng(c.seed + 100);
  const PrivatePstResult want =
      legacy::BuildPrivatePst(truncated, c.epsilon, options, want_rng);
  const std::uint64_t want_next = want_rng.Next();
  // The new builder truncates itself: raw and pre-truncated input alike.
  for (const SequenceDataset* input : {&raw, &truncated}) {
    Rng got_rng(c.seed + 100);
    const PrivatePstResult got =
        BuildPrivatePst(*input, c.epsilon, options, got_rng);
    ExpectSameModel(want.model, got.model);
    EXPECT_EQ(want.stats.nodes_visited, got.stats.nodes_visited);
    EXPECT_EQ(want.stats.nodes_split, got.stats.nodes_split);
    EXPECT_EQ(want.stats.height, got.stats.height);
    // Both consumed the same Laplace draws.
    EXPECT_EQ(want_next, got_rng.Next());
  }
}

TEST_P(FlatIndexParityTest, ExactPstMatchesLegacyBuilder) {
  const ParityCase& c = GetParam();
  Rng data_rng(c.seed);
  const SequenceDataset data =
      BoundaryData(600, c.alphabet, c.l_top, data_rng);
  ExactPstOptions options;
  options.max_depth = static_cast<std::size_t>(c.max_depth);
  options.min_magnitude = 2.0 + c.epsilon;
  ExpectSameModel(legacy::BuildExactPst(data, options),
                  BuildExactPst(data, options));
}

TEST_P(FlatIndexParityTest, NgramMatchesLegacyBuilder) {
  const ParityCase& c = GetParam();
  Rng data_rng(c.seed);
  const SequenceDataset raw = BoundaryData(1500, c.alphabet, c.l_top,
                                           data_rng);
  NgramOptions options;
  options.l_top = c.l_top;
  options.n_max = std::min<std::size_t>(c.max_depth, 6);
  options.threshold_factor = 0.5;

  Rng want_rng(c.seed + 200);
  const legacy::NgramRows want = legacy::BuildNgram(
      raw.Truncate(c.l_top), c.epsilon, options, want_rng);
  Rng got_rng(c.seed + 200);
  const NgramModel got(raw, c.epsilon, options, got_rng);
  EXPECT_EQ(want.parents, got.ParentLinks());
  ASSERT_EQ(want.counts.size(), got.size());
  for (std::size_t id = 0; id < got.size(); ++id) {
    ASSERT_EQ(want.counts[id], got.NodeCount(static_cast<NodeId>(id)))
        << "node " << id;
  }
  EXPECT_EQ(want_rng.Next(), got_rng.Next());
}

// Alphabets 1–9; small l⊤ (the predictor-length cap binds), small max_depth
// (the depth cap binds), and large ε (deep trees).
INSTANTIATE_TEST_SUITE_P(
    Cases, FlatIndexParityTest,
    ::testing::Values(ParityCase{1, 4, 20.0, 512, 1},
                      ParityCase{2, 3, 50.0, 512, 2},
                      ParityCase{2, 12, 1.0, 3, 3},
                      ParityCase{3, 6, 8.0, 512, 4},
                      ParityCase{3, 6, 8.0, 2, 5},
                      ParityCase{4, 1, 5.0, 512, 6},
                      ParityCase{5, 8, 0.5, 512, 7},
                      ParityCase{6, 5, 30.0, 4, 8},
                      ParityCase{7, 50, 2.0, 512, 9},
                      ParityCase{8, 10, 100.0, 512, 10},
                      ParityCase{9, 4, 60.0, 512, 11},
                      ParityCase{9, 7, 3.0, 1, 12}));

}  // namespace
}  // namespace privtree
