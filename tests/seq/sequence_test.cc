#include "seq/sequence.h"

#include <gtest/gtest.h>

#include <vector>

namespace privtree {
namespace {

TEST(SequenceDatasetTest, AddAndAccess) {
  SequenceDataset data(3);
  const std::vector<Symbol> s1 = {0, 1, 2};
  const std::vector<Symbol> s2 = {2, 2};
  data.Add(s1);
  data.Add(s2, /*has_end=*/false);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.alphabet_size(), 3u);
  EXPECT_EQ(data.length(0), 3u);
  EXPECT_EQ(data.length(1), 2u);
  EXPECT_TRUE(data.has_end(0));
  EXPECT_FALSE(data.has_end(1));
  EXPECT_EQ(data.sequence(0)[2], 2);
  std::size_t total_symbols = 0;
  for (std::size_t i = 0; i < data.size(); ++i) total_symbols += data.length(i);
  EXPECT_EQ(total_symbols, 5u);
}

TEST(SequenceDatasetTest, LengthWithEndCountsTheMarker) {
  SequenceDataset data(2);
  const std::vector<Symbol> s = {0, 1};
  data.Add(s, true);
  data.Add(s, false);
  EXPECT_EQ(data.LengthWithEnd(0), 3u);
  EXPECT_EQ(data.LengthWithEnd(1), 2u);
}

TEST(SequenceDatasetTest, AverageLength) {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{0});
  data.Add(std::vector<Symbol>{0, 1, 1});
  EXPECT_DOUBLE_EQ(data.AverageLength(), 2.0);
}

TEST(SequenceDatasetTest, LengthHistogram) {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{0});
  data.Add(std::vector<Symbol>{1});
  data.Add(std::vector<Symbol>{0, 1, 0});
  const auto hist = data.LengthHistogram();
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[3], 1u);
  EXPECT_EQ(hist[0], 0u);
}

TEST(SequenceDatasetTest, TruncateMatchesPaperSemantics) {
  // "length with & but not $" must not exceed l⊤: a sequence of l symbols
  // with an end marker has length l+1.
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{0, 1, 0, 1});  // Length-with-end 5.
  data.Add(std::vector<Symbol>{0, 1});        // Length-with-end 3.
  const SequenceDataset truncated = data.Truncate(4);
  // First sequence: 5 > 4 ⇒ keep 4 symbols, drop &.
  EXPECT_EQ(truncated.length(0), 4u);
  EXPECT_FALSE(truncated.has_end(0));
  // Second sequence: untouched.
  EXPECT_EQ(truncated.length(1), 2u);
  EXPECT_TRUE(truncated.has_end(1));
}

TEST(SequenceDatasetTest, TruncateBoundaryCase) {
  // Exactly l⊤ symbols + & (= l⊤+1) is over the cap: the paper's example
  // $x1..x_{l⊤}& → $x1..x_{l⊤}.
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{0, 0, 0});
  const SequenceDataset truncated = data.Truncate(3);
  EXPECT_EQ(truncated.length(0), 3u);
  EXPECT_FALSE(truncated.has_end(0));
}

TEST(SequenceDatasetTest, TruncateCutsLongOpenEndedSequences) {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>(10, 1), /*has_end=*/false);
  const SequenceDataset truncated = data.Truncate(4);
  EXPECT_EQ(truncated.length(0), 4u);
  EXPECT_FALSE(truncated.has_end(0));
}

TEST(SequenceDatasetTest, TruncateIsIdempotent) {
  SequenceDataset data(3);
  data.Add(std::vector<Symbol>{0, 1, 2, 0, 1, 2});
  const auto once = data.Truncate(4);
  const auto twice = once.Truncate(4);
  EXPECT_EQ(once.length(0), twice.length(0));
  EXPECT_EQ(once.has_end(0), twice.has_end(0));
}

TEST(SequenceDatasetDeathTest, OutOfAlphabetSymbolAborts) {
  SequenceDataset data(2);
  const std::vector<Symbol> bad = {0, 2};
  EXPECT_DEATH(data.Add(bad), "PRIVTREE_CHECK");
}

}  // namespace
}  // namespace privtree
