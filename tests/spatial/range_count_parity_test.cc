// Parity of the range-carrying spatial builders with a test-local copy of
// the policy they replaced, which scored every cell — and counted every
// leaf — with two binary searches over the whole sorted key array
// (CountPrefix below).  Trees, released counts and stats must agree
// bit for bit for 1-d to 4-d points, every dims_per_split from 1 to d,
// both depth caps, several ε and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/privtree.h"
#include "core/privtree_params.h"
#include "core/simpletree.h"
#include "core/svt_tree.h"
#include "dp/budget.h"
#include "dp/distributions.h"
#include "dp/rng.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"
#include "spatial/quadtree_policy.h"
#include "spatial/spatial_histogram.h"
#include "spatial/svt_histogram.h"

namespace privtree {
namespace {
/// Points whose key starts with the low `bits` bits of `prefix` (bits == 0
/// counts every point): the two whole-array binary searches the
/// range-carrying builders replaced.
std::size_t CountPrefix(const MortonIndex& index, MortonKey prefix,
                        int bits) {
  if (bits == 0) return index.size();
  return index.LowerBound(prefix + 1, bits, 0, index.size()) -
         index.LowerBound(prefix, bits, 0, index.size());
}

namespace legacy {

/// The replaced QuadtreePolicy: cells carry no key range.
class QuadtreePolicy {
 public:
  using Domain = SpatialCell;

  QuadtreePolicy(const MortonIndex& index, Box root, int dims_per_split)
      : index_(index), root_(std::move(root)),
        dims_per_split_(dims_per_split) {}

  Domain Root() const { return SpatialCell{root_, 0, 0}; }

  bool CanSplit(const Domain& cell) const {
    return cell.bits + dims_per_split_ <= index_.max_prefix_bits();
  }

  std::vector<Domain> Split(const Domain& cell) const {
    const std::size_t dim = root_.dim();
    std::vector<Domain> children;
    children.push_back(Domain{cell.box, cell.prefix << dims_per_split_,
                              cell.bits + dims_per_split_});
    for (int step = 0; step < dims_per_split_; ++step) {
      const std::size_t j = (cell.bits + step) % dim;
      const int bit_pos = dims_per_split_ - 1 - step;
      std::vector<Domain> next;
      for (const Domain& child : children) {
        Domain lower = child;
        lower.box = child.box.BisectDim(j, 0);
        next.push_back(std::move(lower));
        Domain upper = child;
        upper.box = child.box.BisectDim(j, 1);
        upper.prefix |= static_cast<MortonKey>(1) << bit_pos;
        next.push_back(std::move(upper));
      }
      children = std::move(next);
    }
    return children;
  }

  double Score(const Domain& cell) const {
    return static_cast<double>(CountPrefix(index_, cell.prefix, cell.bits));
  }

  int fanout() const { return 1 << dims_per_split_; }

 private:
  const MortonIndex& index_;
  Box root_;
  int dims_per_split_;
};

void AggregateLeafCounts(const DecompTree<SpatialCell>& tree,
                         std::vector<double>* count) {
  const auto& nodes = tree.nodes();
  for (std::size_t i = nodes.size(); i-- > 0;) {
    if (nodes[i].is_leaf()) continue;
    double total = 0.0;
    for (NodeId child : nodes[i].children) total += (*count)[child];
    (*count)[i] = total;
  }
}

/// Noisy leaf counts from CountPrefix, aggregated upward.
void CountLeaves(const MortonIndex& index, double scale, Rng& rng,
                 SpatialHistogram* hist) {
  hist->count.assign(hist->tree.size(), 0.0);
  for (NodeId leaf : hist->tree.LeafIds()) {
    const auto& cell = hist->tree.node(leaf).domain;
    hist->count[leaf] =
        static_cast<double>(CountPrefix(index, cell.prefix, cell.bits)) +
        SampleLaplace(rng, scale);
  }
  AggregateLeafCounts(hist->tree, &hist->count);
}

SpatialHistogram BuildPrivTreeHistogram(const PointSet& points,
                                        const Box& domain, double epsilon,
                                        const PrivTreeHistogramOptions& options,
                                        Rng& rng) {
  const MortonIndex index(points, domain);
  const QuadtreePolicy policy(index, domain, options.dims_per_split);
  PrivacyBudget budget(epsilon);
  const double tree_epsilon =
      budget.SpendFraction(options.tree_budget_fraction);
  const double count_epsilon = budget.SpendRemaining();
  PrivTreeParams params =
      PrivTreeParams::ForEpsilon(tree_epsilon, policy.fanout());
  params.max_depth = options.max_depth;
  SpatialHistogram hist;
  hist.tree = RunPrivTree(policy, params, rng, &hist.stats);
  CountLeaves(index, 1.0 / count_epsilon, rng, &hist);
  return hist;
}

SpatialHistogram BuildSimpleTreeHistogram(
    const PointSet& points, const Box& domain, double epsilon,
    const SimpleTreeHistogramOptions& options, Rng& rng) {
  const MortonIndex index(points, domain);
  const QuadtreePolicy policy(index, domain, options.dims_per_split);
  SimpleTreeParams params =
      SimpleTreeParams::ForEpsilon(epsilon, options.height);
  params.theta = options.theta;
  auto result = RunSimpleTree(policy, params, rng);
  SpatialHistogram hist;
  hist.tree = std::move(result.tree);
  hist.count = std::move(result.noisy_score);
  hist.count.resize(hist.tree.size(), 0.0);
  return hist;
}

SpatialHistogram BuildSvtTreeHistogram(const PointSet& points,
                                       const Box& domain, double epsilon,
                                       const SvtHistogramOptions& options,
                                       Rng& rng) {
  const MortonIndex index(points, domain);
  const QuadtreePolicy policy(index, domain, options.dims_per_split);
  PrivacyBudget budget(epsilon);
  const double tree_epsilon =
      budget.SpendFraction(options.tree_budget_fraction);
  const double count_epsilon = budget.SpendRemaining();
  SvtTreeParams params =
      SvtTreeParams::ForEpsilon(tree_epsilon, options.max_splits);
  params.theta = options.theta;
  SpatialHistogram hist;
  hist.tree = RunSvtTree(policy, params, rng);
  CountLeaves(index, 1.0 / count_epsilon, rng, &hist);
  return hist;
}

}  // namespace legacy

/// Clustered points, so deep cells stay populated, plus exact duplicates
/// (keys that no split separates).
PointSet ClusteredPoints(std::size_t n, std::size_t dim, Rng& rng) {
  PointSet points(dim);
  std::vector<double> p(dim);
  std::vector<double> center(dim);
  for (auto& c : center) c = 0.1 + 0.8 * rng.NextDouble();
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = u < 0.5   ? center[j] + 0.01 * rng.NextDouble()
             : u < 0.6 ? center[j]
                       : rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

/// Same nodes (box, address, structure), counts and stats, bit for bit;
/// and every cell's key range holds exactly its CountPrefix points.
void ExpectSameHistogram(const SpatialHistogram& want,
                         const SpatialHistogram& got,
                         const MortonIndex& index) {
  ASSERT_EQ(want.tree.size(), got.tree.size());
  for (std::size_t id = 0; id < want.tree.size(); ++id) {
    const auto& a = want.tree.node(static_cast<NodeId>(id));
    const auto& b = got.tree.node(static_cast<NodeId>(id));
    ASSERT_EQ(a.domain.box, b.domain.box) << "node " << id;
    ASSERT_TRUE(a.domain.prefix == b.domain.prefix) << "node " << id;
    ASSERT_EQ(a.domain.bits, b.domain.bits) << "node " << id;
    ASSERT_EQ(a.parent, b.parent) << "node " << id;
    ASSERT_EQ(a.children, b.children) << "node " << id;
    ASSERT_EQ(b.domain.count(),
              CountPrefix(index, b.domain.prefix, b.domain.bits))
        << "node " << id;
  }
  ASSERT_EQ(want.count, got.count);
}

struct ParityCase {
  std::size_t dim;
  int dims_per_split;
  double epsilon;
  std::int32_t max_depth;
  std::uint64_t seed;
};

class RangeCountParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(RangeCountParityTest, PrivTreeHistogramMatchesLegacyBuilder) {
  const ParityCase& c = GetParam();
  Rng data_rng(c.seed);
  const PointSet points = ClusteredPoints(4000, c.dim, data_rng);
  const Box domain = Box::UnitCube(c.dim);
  PrivTreeHistogramOptions options;
  options.dims_per_split = c.dims_per_split;
  options.max_depth = c.max_depth;

  Rng want_rng(c.seed + 100);
  const SpatialHistogram want = legacy::BuildPrivTreeHistogram(
      points, domain, c.epsilon, options, want_rng);
  Rng got_rng(c.seed + 100);
  const SpatialHistogram got =
      BuildPrivTreeHistogram(points, domain, c.epsilon, options, got_rng);
  ExpectSameHistogram(want, got, MortonIndex(points, domain));
  EXPECT_EQ(want.stats.nodes_visited, got.stats.nodes_visited);
  EXPECT_EQ(want.stats.nodes_split, got.stats.nodes_split);
  EXPECT_EQ(want.stats.height, got.stats.height);
  EXPECT_EQ(want_rng.Next(), got_rng.Next());
}

TEST_P(RangeCountParityTest, SimpleTreeHistogramMatchesLegacyBuilder) {
  const ParityCase& c = GetParam();
  Rng data_rng(c.seed);
  const PointSet points = ClusteredPoints(4000, c.dim, data_rng);
  const Box domain = Box::UnitCube(c.dim);
  SimpleTreeHistogramOptions options;
  options.dims_per_split = c.dims_per_split;
  options.height = std::min(c.max_depth, 8);
  options.theta = 20.0;

  Rng want_rng(c.seed + 200);
  const SpatialHistogram want = legacy::BuildSimpleTreeHistogram(
      points, domain, c.epsilon, options, want_rng);
  Rng got_rng(c.seed + 200);
  const SpatialHistogram got =
      BuildSimpleTreeHistogram(points, domain, c.epsilon, options, got_rng);
  ExpectSameHistogram(want, got, MortonIndex(points, domain));
  EXPECT_EQ(want_rng.Next(), got_rng.Next());
}

TEST_P(RangeCountParityTest, SvtTreeHistogramMatchesLegacyBuilder) {
  const ParityCase& c = GetParam();
  Rng data_rng(c.seed);
  const PointSet points = ClusteredPoints(4000, c.dim, data_rng);
  const Box domain = Box::UnitCube(c.dim);
  SvtHistogramOptions options;
  options.dims_per_split = c.dims_per_split;
  options.max_splits = 40;
  options.theta = 30.0;

  Rng want_rng(c.seed + 300);
  const SpatialHistogram want = legacy::BuildSvtTreeHistogram(
      points, domain, c.epsilon, options, want_rng);
  Rng got_rng(c.seed + 300);
  const SpatialHistogram got =
      BuildSvtTreeHistogram(points, domain, c.epsilon, options, got_rng);
  ExpectSameHistogram(want, got, MortonIndex(points, domain));
  EXPECT_EQ(want_rng.Next(), got_rng.Next());
}

// Every (d, dims_per_split) pair for d = 1..4; a small max_depth makes the
// depth cap bind, and the 1-d large-ε cases run into the 63-bit Morton
// resolution (the CanSplit cap) on the duplicate points.
INSTANTIATE_TEST_SUITE_P(
    Cases, RangeCountParityTest,
    ::testing::Values(ParityCase{1, 1, 50.0, 512, 1},
                      ParityCase{1, 1, 0.5, 3, 2},
                      ParityCase{2, 1, 2.0, 512, 3},
                      ParityCase{2, 2, 1.0, 512, 4},
                      ParityCase{2, 2, 20.0, 4, 5},
                      ParityCase{3, 1, 5.0, 512, 6},
                      ParityCase{3, 2, 0.3, 512, 7},
                      ParityCase{3, 3, 8.0, 512, 8},
                      ParityCase{4, 1, 1.0, 6, 9},
                      ParityCase{4, 2, 3.0, 512, 10},
                      ParityCase{4, 3, 10.0, 512, 11},
                      ParityCase{4, 4, 0.8, 512, 12}));

}  // namespace
}  // namespace privtree
