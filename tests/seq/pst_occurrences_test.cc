// The flat posting index against a naive reference implementation: for
// random datasets and random predictor strings, both the histograms Refine
// counts and those of the child postings it sorts must equal a direct scan
// counting "occurrences of the predictor followed by each symbol".
// The root's postings are not stored; RootHist and RefineRoot scan the
// padded array, and must equal naive counting and Refine over the offsets
// of every non-$ symbol in order.
#include "seq/pst_occurrences.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "dp/rng.h"
#include "seq/sequence.h"

namespace privtree {
namespace {

/// Naive reference: histogram of symbols following predictor `w` in the
/// padded sequences ($ x1..xl [&]), where w may contain the $ marker
/// (encoded as alphabet_size) as its first symbol.
std::vector<double> NaiveHist(const SequenceDataset& data,
                              const std::vector<Symbol>& w) {
  const Symbol dollar = static_cast<Symbol>(data.alphabet_size());
  std::vector<double> hist(data.alphabet_size() + 1, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto s = data.sequence(i);
    const std::size_t last = s.size() + (data.has_end(i) ? 1 : 0);
    // Padded symbol at position pos (0 = $, 1..l = s, l+1 = &).
    const auto at = [&](std::int64_t pos) -> std::int32_t {
      if (pos < 0) return -1;
      if (pos == 0) return dollar;
      if (pos <= static_cast<std::int64_t>(s.size())) {
        return s[static_cast<std::size_t>(pos - 1)];
      }
      if (pos == static_cast<std::int64_t>(s.size()) + 1 &&
          data.has_end(i)) {
        return static_cast<std::int32_t>(data.alphabet_size());
      }
      return -1;
    };
    for (std::size_t p = 1; p <= last; ++p) {
      bool match = true;
      for (std::size_t j = 0; j < w.size() && match; ++j) {
        const std::int64_t pos =
            static_cast<std::int64_t>(p) - static_cast<std::int64_t>(j) - 1;
        match = at(pos) == static_cast<std::int32_t>(
                               w[w.size() - 1 - j]);
      }
      if (!match) continue;
      const std::int32_t predicted = at(static_cast<std::int64_t>(p));
      if (predicted >= 0) hist[static_cast<std::size_t>(predicted)] += 1.0;
    }
  }
  return hist;
}

/// The prediction histogram of a posting list: the count of each symbol
/// at the listed offsets.
std::vector<double> HistOf(const PstOccurrences& occurrences,
                           std::span<const std::uint32_t> postings) {
  std::vector<double> hist(occurrences.fanout(), 0.0);
  for (const std::uint32_t g : postings) {
    const Symbol x = occurrences.padded()[g];
    EXPECT_LE(x, occurrences.end_code());
    if (x < hist.size()) hist[x] += 1.0;
  }
  return hist;
}

/// The root's postings as the layout used to store them: every offset
/// whose symbol is not $, in order.
std::vector<std::uint32_t> RootPostings(const PstOccurrences& occurrences) {
  std::vector<std::uint32_t> root;
  const auto padded = occurrences.padded();
  for (std::size_t g = 0; g < padded.size(); ++g) {
    if (padded[g] != occurrences.dollar_code()) {
      root.push_back(static_cast<std::uint32_t>(g));
    }
  }
  return root;
}

SequenceDataset RandomData(std::size_t n, std::size_t alphabet,
                           Rng& rng) {
  SequenceDataset data(alphabet);
  std::vector<Symbol> s;
  for (std::size_t i = 0; i < n; ++i) {
    s.clear();
    const std::size_t len = 1 + rng.NextBounded(12);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(alphabet)));
    }
    data.Add(s, /*has_end=*/rng.NextDouble() < 0.8);
  }
  return data;
}

class PstOccurrencesFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PstOccurrencesFuzzTest, RefinementMatchesNaiveCounting) {
  Rng rng(GetParam());
  const std::size_t alphabet = 2 + rng.NextBounded(4);
  const SequenceDataset raw = RandomData(300, alphabet, rng);
  // Uncapped, and capped inside the length range so the l⊤ rule bites.
  for (const std::size_t l_top :
       {PstOccurrences::kNoLengthCap, std::size_t{1} + rng.NextBounded(10)}) {
    const SequenceDataset data =
        l_top == PstOccurrences::kNoLengthCap ? raw : raw.Truncate(l_top);
    const PstOccurrences occurrences(raw, l_top);

    // Walk a random refinement chain up to depth 4, checking every node.
    std::vector<std::uint32_t> postings = RootPostings(occurrences);
    ASSERT_EQ(postings.size(), occurrences.predicted_positions());
    std::vector<Symbol> predictor;
    EXPECT_EQ(occurrences.RootHist(), NaiveHist(data, predictor));
    EXPECT_EQ(HistOf(occurrences, postings), NaiveHist(data, predictor));
    for (int depth = 0; depth < 4; ++depth) {
      std::vector<std::uint32_t> children;
      std::vector<std::uint32_t> bounds;
      std::vector<std::uint32_t> child_hists;
      occurrences.Refine(postings, predictor.size(), &children, &bounds,
                         &child_hists);
      if (depth == 0) {
        // The root split scans the array and sorts the same postings in
        // the same order as Refine over the explicit root postings.
        std::vector<std::uint32_t> root_children;
        std::vector<std::uint32_t> root_bounds;
        std::vector<std::uint32_t> root_hists;
        occurrences.RefineRoot(&root_children, &root_bounds, &root_hists);
        EXPECT_EQ(root_children, children);
        EXPECT_EQ(root_bounds, bounds);
        EXPECT_EQ(root_hists, child_hists);
      }
      ASSERT_EQ(bounds.size(), alphabet + 2);
      ASSERT_EQ(child_hists.size(), (alphabet + 1) * (alphabet + 1));
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), children.size());
      // Check each child against the naive count.
      const auto child_postings = [&](std::size_t c) {
        return std::span<const std::uint32_t>(children).subspan(
            bounds[c], bounds[c + 1] - bounds[c]);
      };
      for (std::size_t c = 0; c <= alphabet; ++c) {
        std::vector<Symbol> child_predictor;
        child_predictor.push_back(static_cast<Symbol>(c));
        child_predictor.insert(child_predictor.end(), predictor.begin(),
                               predictor.end());
        const std::vector<double> naive = NaiveHist(data, child_predictor);
        EXPECT_EQ(HistOf(occurrences, child_postings(c)), naive)
            << "depth " << depth << " child " << c;
        const auto row = child_hists.begin() +
                         static_cast<std::ptrdiff_t>(c * (alphabet + 1));
        const std::vector<double> counted(
            row, row + static_cast<std::ptrdiff_t>(alphabet + 1));
        EXPECT_EQ(counted, naive) << "depth " << depth << " child " << c;
      }
      // Descend into the most populated non-$ child.
      std::size_t best = 0;
      for (std::size_t c = 1; c < alphabet; ++c) {
        if (child_postings(c).size() > child_postings(best).size()) best = c;
      }
      if (child_postings(best).empty()) break;
      predictor.insert(predictor.begin(), static_cast<Symbol>(best));
      postings.assign(child_postings(best).begin(),
                      child_postings(best).end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstOccurrencesFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(PstOccurrencesTest, RootCountsAllPredictedPositions) {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{0, 1});            // 3 positions (incl &).
  data.Add(std::vector<Symbol>{1}, false);        // 1 position (open).
  const PstOccurrences occurrences(data);
  EXPECT_EQ(occurrences.predicted_positions(), 4u);
  EXPECT_EQ(occurrences.RootHist(), (std::vector<double>{1.0, 2.0, 1.0}));
}

TEST(PstOccurrencesTest, EmptySequenceContributesOnlyEndMarker) {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{});  // Padded: $&.
  const PstOccurrences occurrences(data);
  ASSERT_EQ(occurrences.predicted_positions(), 1u);
  const auto hist = occurrences.RootHist();
  EXPECT_DOUBLE_EQ(hist[occurrences.end_code()], 1.0);
  EXPECT_DOUBLE_EQ(hist[0] + hist[1], 0.0);
}

TEST(PstOccurrencesTest, MemoryBytesAreTwoPerPaddedSymbol) {
  SequenceDataset data(3);
  data.Add(std::vector<Symbol>{0, 1, 2});  // $012&.
  data.Add(std::vector<Symbol>{2}, false);  // $2.
  const PstOccurrences occurrences(data);
  EXPECT_EQ(occurrences.padded().size(), 8u);  // Plus the trailing $.
  EXPECT_EQ(occurrences.MemoryBytes(), 16u);
  EXPECT_EQ(occurrences.l_top(), PstOccurrences::kNoLengthCap);
}

TEST(PstOccurrencesTest, LayoutAppliesTheLengthCap) {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{0, 1});        // Paper length 3 > 2: $01.
  data.Add(std::vector<Symbol>{1});           // Length 2 fits: $1&.
  data.Add(std::vector<Symbol>{0, 1, 1}, false);  // Open, 3 > 2: $01.
  data.Add(std::vector<Symbol>{});            // $&.
  const PstOccurrences occurrences(data, /*l_top=*/2);
  const Symbol end = occurrences.end_code();
  const Symbol dollar = occurrences.dollar_code();
  const std::vector<Symbol> expected = {dollar, 0, 1,   dollar, 1, end,
                                        dollar, 0, 1,   dollar, end,
                                        dollar};  // Trailing sentinel.
  EXPECT_EQ(std::vector<Symbol>(occurrences.padded().begin(),
                                occurrences.padded().end()),
            expected);
  EXPECT_EQ(occurrences.l_top(), 2u);
  // The root's postings are the non-$ offsets; the split sorts them by
  // the preceding symbol: after 0 → {2, 8}, after 1 → {5}, after $ →
  // {1, 4, 7, 10}.
  EXPECT_EQ(RootPostings(occurrences),
            (std::vector<std::uint32_t>{1, 2, 4, 5, 7, 8, 10}));
  EXPECT_EQ(occurrences.predicted_positions(), 7u);
  std::vector<std::uint32_t> children;
  std::vector<std::uint32_t> bounds;
  std::vector<std::uint32_t> child_hists;
  occurrences.RefineRoot(&children, &bounds, &child_hists);
  EXPECT_EQ(children, (std::vector<std::uint32_t>{2, 8, 5, 1, 4, 7, 10}));
  EXPECT_EQ(bounds, (std::vector<std::uint32_t>{0, 2, 3, 7}));
  // Root histogram: symbol 0 twice, 1 three times, & twice.
  EXPECT_EQ(occurrences.RootHist(), (std::vector<double>{2.0, 3.0, 2.0}));
}

TEST(PstGrowthDeathTest, SplittingAShallowerNodeLaterAborts) {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{0, 1, 0, 1});
  const PstOccurrences occurrences(data);
  PstGrowth growth(occurrences);
  const NodeId first = growth.Split(growth.model().root());
  growth.Split(growth.Split(first));  // Depth 1, then depth 2.
  // A depth-1 node after a depth-2 split: its level's postings are gone.
  EXPECT_DEATH(growth.Split(first + 1), "PRIVTREE_CHECK");
}

}  // namespace
}  // namespace privtree
