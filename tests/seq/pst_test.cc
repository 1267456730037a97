// PST structure and query tests, anchored to the paper's worked example
// (Figure 3): D = {$B&, $AB&, $AAB&, $AAAB&} over I = {A, B}.
#include "seq/pst.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dp/rng.h"
#include "seq/exact_pst.h"
#include "seq/sequence.h"

namespace privtree {
namespace {

constexpr Symbol kA = 0;
constexpr Symbol kB = 1;

SequenceDataset Figure3Data() {
  SequenceDataset data(2);
  data.Add(std::vector<Symbol>{kB});
  data.Add(std::vector<Symbol>{kA, kB});
  data.Add(std::vector<Symbol>{kA, kA, kB});
  data.Add(std::vector<Symbol>{kA, kA, kA, kB});
  return data;
}

/// The exact PST of Figure 3 (split the root and its A-child only),
/// reproduced through the manual building API.
PstModel Figure3Pst() {
  const SequenceDataset data = Figure3Data();
  ExactPstOptions options;
  // Conditions tuned to reproduce the figure: B and $ children have
  // near-deterministic histograms (entropy 0), A is diverse.
  options.min_magnitude = 2.0;
  options.min_entropy = 0.5;
  options.max_depth = 2;
  return BuildExactPst(data, options);
}

TEST(PstFigure3Test, RootHistogramMatchesPaper) {
  const PstModel pst = Figure3Pst();
  // hist(v1) = A: 6 | B: 4 | &: 4.
  const auto& root = pst.node(pst.root());
  EXPECT_DOUBLE_EQ(root.hist[kA], 6.0);
  EXPECT_DOUBLE_EQ(root.hist[kB], 4.0);
  EXPECT_DOUBLE_EQ(root.hist[pst.alphabet_size()], 4.0);
}

TEST(PstFigure3Test, NodeHistogramsMatchPaper) {
  const PstModel pst = Figure3Pst();
  const auto& root = pst.node(pst.root());
  ASSERT_FALSE(root.children.empty());
  // v3 = A-child: A: 3 | B: 3 | &: 0.
  const auto& v3 = pst.node(root.children[kA]);
  EXPECT_DOUBLE_EQ(v3.hist[kA], 3.0);
  EXPECT_DOUBLE_EQ(v3.hist[kB], 3.0);
  EXPECT_DOUBLE_EQ(v3.hist[pst.alphabet_size()], 0.0);
  // v4 = B-child: A: 0 | B: 0 | &: 4.
  const auto& v4 = pst.node(root.children[kB]);
  EXPECT_DOUBLE_EQ(v4.hist[pst.alphabet_size()], 4.0);
  // v2 = $-child: A: 3 | B: 1 | &: 0.
  const auto& v2 = pst.node(root.children[pst.dollar()]);
  EXPECT_DOUBLE_EQ(v2.hist[kA], 3.0);
  EXPECT_DOUBLE_EQ(v2.hist[kB], 1.0);
  // v6 = AA: A: 1 | B: 2 | &: 0.
  ASSERT_FALSE(v3.children.empty());
  const auto& v6 = pst.node(v3.children[kA]);
  EXPECT_DOUBLE_EQ(v6.hist[kA], 1.0);
  EXPECT_DOUBLE_EQ(v6.hist[kB], 2.0);
  // v5 = $A: A: 2 | B: 1 | &: 0.
  const auto& v5 = pst.node(v3.children[pst.dollar()]);
  EXPECT_DOUBLE_EQ(v5.hist[kA], 2.0);
  EXPECT_DOUBLE_EQ(v5.hist[kB], 1.0);
  // v7 = BA: all zero.
  const auto& v7 = pst.node(v3.children[kB]);
  EXPECT_DOUBLE_EQ(v7.hist[kA], 0.0);
  EXPECT_DOUBLE_EQ(v7.hist[kB], 0.0);
  EXPECT_DOUBLE_EQ(v7.hist[pst.alphabet_size()], 0.0);
}

TEST(PstFigure3Test, StringFrequencyExampleFromPaper) {
  // Section 4.1's worked query: sq = AB → ans = 6 · hist(v3)[B]/‖hist‖ = 3.
  const PstModel pst = Figure3Pst();
  const std::vector<Symbol> query = {kA, kB};
  EXPECT_DOUBLE_EQ(pst.EstimateStringFrequency(query), 3.0);
}

TEST(PstFigure3Test, SingleSymbolFrequencyIsRootCount) {
  const PstModel pst = Figure3Pst();
  EXPECT_DOUBLE_EQ(pst.EstimateStringFrequency(std::vector<Symbol>{kA}),
                   6.0);
  EXPECT_DOUBLE_EQ(pst.EstimateStringFrequency(std::vector<Symbol>{kB}),
                   4.0);
}

TEST(PstFigure3Test, LongestSuffixLookupWalksRightToLeft) {
  const PstModel pst = Figure3Pst();
  const auto& root = pst.node(pst.root());
  // Context "BA": deepest match is the BA node under the A child.
  const std::vector<Symbol> context = {kB, kA};
  const NodeId v = pst.LongestSuffixNode(context, false);
  EXPECT_EQ(v, pst.node(root.children[kA]).children[kB]);
}

TEST(PstFigure3Test, StartOfSequenceUsesDollarChild) {
  const PstModel pst = Figure3Pst();
  const auto& root = pst.node(pst.root());
  // Empty context at the start of a sequence → the $ node.
  const NodeId v = pst.LongestSuffixNode({}, true);
  EXPECT_EQ(v, root.children[pst.dollar()]);
  // Context "A" at the start → the $A node.
  const std::vector<Symbol> context = {kA};
  const NodeId deeper = pst.LongestSuffixNode(context, true);
  EXPECT_EQ(deeper,
            pst.node(root.children[kA]).children[pst.dollar()]);
}

TEST(PstModelTest, SplitNodeCreatesAllChildrenWithPrependedPredictors) {
  PstModel pst(2);
  pst.AddRoot();
  const NodeId first = pst.SplitNode(pst.root());
  ASSERT_EQ(pst.size(), 4u);
  EXPECT_EQ(pst.node(first).predictor, std::vector<Symbol>{kA});
  EXPECT_EQ(pst.node(first + 1).predictor, std::vector<Symbol>{kB});
  EXPECT_EQ(pst.node(first + 2).predictor,
            std::vector<Symbol>{pst.dollar()});
  // Split the A-child: predictors prepend, so its A-child is "AA" and its
  // $-child is "$A".
  const NodeId grand = pst.SplitNode(first);
  EXPECT_EQ(pst.node(grand).predictor, (std::vector<Symbol>{kA, kA}));
  EXPECT_EQ(pst.node(grand + 2).predictor,
            (std::vector<Symbol>{pst.dollar(), kA}));
}

TEST(PstModelTest, SamplingReproducesFigure3Distribution) {
  const PstModel pst = Figure3Pst();
  Rng rng(42);
  int b_first = 0, total = 4000;
  for (int i = 0; i < total; ++i) {
    const auto s = pst.SampleSequence(rng, 50);
    ASSERT_FALSE(s.empty());
    if (s[0] == kB) ++b_first;
    // Every sampled sequence ends in B (B is always followed by &).
    EXPECT_EQ(s.back(), kB);
  }
  // P(first = B) = hist($)[B]/4 = 1/4.
  EXPECT_NEAR(static_cast<double>(b_first) / total, 0.25, 0.03);
}

TEST(PstModelTest, AggregateAndClampRebuildsInternalHists) {
  PstModel pst(2);
  pst.AddRoot();
  const NodeId first = pst.SplitNode(pst.root());
  pst.mutable_node(first).hist = {1.0, -2.0, 3.0};
  pst.mutable_node(first + 1).hist = {4.0, 5.0, -1.0};
  pst.mutable_node(first + 2).hist = {0.0, 0.0, 0.0};
  pst.AggregateAndClampHists();
  // Root = sum of raw leaf hists, then clamp: (5, 3, 2) — the -2 and -1
  // entered the sums before clamping (Section 4.2 order).
  const auto& root_hist = pst.node(pst.root()).hist;
  EXPECT_DOUBLE_EQ(root_hist[0], 5.0);
  EXPECT_DOUBLE_EQ(root_hist[1], 3.0);
  EXPECT_DOUBLE_EQ(root_hist[2], 2.0);
  // Leaves are clamped.
  EXPECT_DOUBLE_EQ(pst.node(first).hist[1], 0.0);
}

TEST(PstScoreTest, MatchesEquation13) {
  EXPECT_DOUBLE_EQ(PstScore({3.0, 3.0, 0.0}), 3.0);   // v3 of Figure 3.
  EXPECT_DOUBLE_EQ(PstScore({0.0, 0.0, 4.0}), 0.0);   // v4: deterministic.
  EXPECT_DOUBLE_EQ(PstScore({6.0, 4.0, 4.0}), 8.0);   // Root.
  EXPECT_DOUBLE_EQ(PstScore({0.0, 0.0, 0.0}), 0.0);
}

TEST(PstScoreTest, IsMonotonicUnderHistDomination) {
  // Lemma 4.1 on the Figure 3 tree: every child's score <= parent's.
  const PstModel pst = Figure3Pst();
  for (std::size_t id = 0; id < pst.size(); ++id) {
    const auto& node = pst.node(static_cast<NodeId>(id));
    for (NodeId child : node.children) {
      EXPECT_LE(PstScore(pst.node(child).hist), PstScore(node.hist))
          << "child " << child;
    }
  }
}

TEST(HistEntropyTest, UniformIsMaximal) {
  const double uniform = HistEntropy({1.0, 1.0, 1.0, 1.0});
  const double skewed = HistEntropy({10.0, 1.0, 1.0, 1.0});
  const double deterministic = HistEntropy({5.0, 0.0, 0.0, 0.0});
  EXPECT_GT(uniform, skewed);
  EXPECT_GT(skewed, deterministic);
  EXPECT_DOUBLE_EQ(deterministic, 0.0);
  EXPECT_NEAR(uniform, std::log(4.0), 1e-12);
}

TEST(HistEntropyTest, EmptyHistIsZero) {
  EXPECT_DOUBLE_EQ(HistEntropy({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(HistEntropy({}), 0.0);
}

}  // namespace
}  // namespace privtree
