#include "spatial/morton_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "dp/rng.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {
namespace {

/// Points whose key starts with the low `bits` bits of `prefix` (bits == 0
/// counts every point), by two LowerBound searches over the whole keys.
std::size_t CountPrefix(const MortonIndex& index, MortonKey prefix,
                        int bits) {
  if (bits == 0) return index.size();
  return index.LowerBound(prefix + 1, bits, 0, index.size()) -
         index.LowerBound(prefix, bits, 0, index.size());
}

PointSet RandomPoints(std::size_t n, std::size_t dim, Rng& rng) {
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : p) x = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

// Points in tight clusters (plus some background) so deep cells, and deep
// radix passes, stay populated.
PointSet ClusteredPoints(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<std::vector<double>> centers(4, std::vector<double>(dim));
  for (auto& center : centers) {
    for (auto& c : center) c = 0.9 * rng.NextDouble();
  }
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& center = centers[rng.NextBounded(centers.size())];
    const bool background = rng.NextDouble() < 0.1;
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = background ? rng.NextDouble()
                        : center[j] + 1e-4 * rng.NextDouble();
    }
    points.Add(p);
  }
  return points;
}

// The original bit-by-bit interleave: d × L single-bit shifts per point.
// The index must reproduce these keys exactly.
MortonKey ReferenceKey(std::span<const double> point, const Box& root,
                       int levels) {
  const double cells = std::ldexp(1.0, levels);
  const std::uint64_t max_coord = (std::uint64_t{1} << levels) - 1;
  std::vector<std::uint64_t> coord(point.size());
  for (std::size_t j = 0; j < point.size(); ++j) {
    double normalized = (point[j] - root.lo(j)) * (1.0 / root.Width(j));
    normalized = std::clamp(normalized, 0.0, 1.0);
    const double scaled = normalized * cells;
    std::uint64_t c = static_cast<std::uint64_t>(scaled);
    if (scaled >= cells || c > max_coord) c = max_coord;
    coord[j] = c;
  }
  MortonKey key = 0;
  for (int level = 0; level < levels; ++level) {
    for (std::size_t j = 0; j < point.size(); ++j) {
      const int bit = levels - 1 - level;
      key = (key << 1) | ((coord[j] >> bit) & 1u);
    }
  }
  return key;
}

// Checks the index against the reference keys sorted with std::sort:
// every point's KeyOf, every occupied prefix (and the one after it) at
// each depth of up to three levels, and every full-depth key.
void ExpectMatchesReference(const PointSet& points, const Box& root) {
  const MortonIndex index(points, root);
  ASSERT_EQ(index.size(), points.size());
  std::vector<MortonKey> reference;
  for (std::size_t i = 0; i < points.size(); ++i) {
    reference.push_back(
        ReferenceKey(points.point(i), root,
                     index.max_prefix_bits() / static_cast<int>(index.dim())));
    ASSERT_TRUE(index.KeyOf(points.point(i)) == reference.back())
        << "point " << i;
  }
  std::sort(reference.begin(), reference.end());
  const int max_bits = index.max_prefix_bits();
  const int shallow = std::min(3 * static_cast<int>(points.dim()), max_bits);
  std::vector<int> depths;
  for (int bits = 0; bits <= shallow; ++bits) depths.push_back(bits);
  depths.push_back(max_bits);
  for (const int bits : depths) {
    std::map<MortonKey, std::size_t> brute;
    for (const MortonKey key : reference) {
      ++brute[bits == 0 ? 0 : key >> (max_bits - bits)];
    }
    for (const auto& [prefix, count] : brute) {
      ASSERT_EQ(CountPrefix(index, prefix, bits), count) << "bits=" << bits;
      const MortonKey next = prefix + 1;
      if (bits > 0 && next >> bits == 0) {
        const auto it = brute.find(next);
        ASSERT_EQ(CountPrefix(index, next, bits),
                  it == brute.end() ? 0u : it->second)
            << "bits=" << bits;
      }
    }
  }
}

TEST(MortonIndexTest, KeysMatchBitLoopReferenceInEveryDim) {
  for (std::size_t dim = 1; dim <= MortonIndex::kMaxDim; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(100 + dim);
    ExpectMatchesReference(RandomPoints(3000, dim, rng),
                           Box::UnitCube(dim));
    ExpectMatchesReference(ClusteredPoints(3000, dim, rng),
                           Box::UnitCube(dim));
  }
}

TEST(MortonIndexTest, KeysMatchReferenceWithDuplicates) {
  for (const std::size_t dim : {1u, 2u, 5u, 8u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(200 + dim);
    // Every key repeated: 300 distinct points, 2000 rows.
    const PointSet distinct = RandomPoints(300, dim, rng);
    PointSet duplicated(dim);
    for (int i = 0; i < 2000; ++i) {
      duplicated.Add(distinct.point(rng.NextBounded(distinct.size())));
    }
    ExpectMatchesReference(duplicated, Box::UnitCube(dim));
    // All keys equal: every radix pass sees one bucket.
    PointSet same(dim);
    for (int i = 0; i < 1000; ++i) same.Add(distinct.point(0));
    ExpectMatchesReference(same, Box::UnitCube(dim));
  }
}

TEST(MortonIndexTest, KeysMatchReferenceOnBoundsAndOutsideRoot) {
  for (std::size_t dim = 1; dim <= MortonIndex::kMaxDim; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(300 + dim);
    PointSet points(dim);
    std::vector<double> p(dim);
    for (int i = 0; i < 500; ++i) {
      for (auto& x : p) {
        // Low bound, upper bound (clamped into the last cell), far
        // outside on either side, or inside.
        const double pick[] = {0.0, 1.0, -3.5, 42.0, rng.NextDouble()};
        x = pick[rng.NextBounded(5)];
      }
      points.Add(p);
    }
    ExpectMatchesReference(points, Box::UnitCube(dim));
  }
}

TEST(MortonIndexTest, KeysMatchReferenceOnNonUnitRoot) {
  for (const std::size_t dim : {2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(400 + dim);
    std::vector<double> lo(dim);
    std::vector<double> hi(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      lo[j] = -1000.0 * rng.NextDouble();
      hi[j] = lo[j] + 1e-3 + 37.0 * rng.NextDouble();
    }
    PointSet points(dim);
    std::vector<double> p(dim);
    for (int i = 0; i < 3000; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        p[j] = lo[j] + (hi[j] - lo[j]) * rng.NextDouble();
      }
      points.Add(p);
    }
    ExpectMatchesReference(points, Box(lo, hi));
  }
}

TEST(MortonIndexTest, KeysMatchReferenceOnTinyInputs) {
  for (std::size_t dim = 1; dim <= MortonIndex::kMaxDim; ++dim) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(500 + dim);
    const PointSet empty(dim);
    const MortonIndex index(empty, Box::UnitCube(dim));
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(CountPrefix(index, 0, 0), 0u);
    EXPECT_EQ(CountPrefix(index, 1, 1), 0u);
    ExpectMatchesReference(RandomPoints(1, dim, rng), Box::UnitCube(dim));
  }
}

TEST(MortonIndexTest, EmptyPrefixCountsEverything) {
  Rng rng(1);
  const PointSet points = RandomPoints(1000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  EXPECT_EQ(CountPrefix(index, 0, 0), 1000u);
}

TEST(MortonIndexTest, FirstLevelPartitions2D) {
  Rng rng(2);
  const PointSet points = RandomPoints(5000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  // The four depth-1 quadrants (2 bits) partition the points.
  std::size_t total = 0;
  for (MortonKey q = 0; q < 4; ++q) total += CountPrefix(index, q, 2);
  EXPECT_EQ(total, 5000u);
}

TEST(MortonIndexTest, PrefixCountsMatchExactBoxCounts2D) {
  Rng rng(3);
  const PointSet points = RandomPoints(20000, 2, rng);
  const Box root = Box::UnitCube(2);
  const MortonIndex index(points, root);
  // Check a concrete depth-2 cell: first split x (bit 1 of prefix level 1),
  // then y.  Bit order is level-major, dim-minor: bits = (x1, y1, x2, y2).
  // Prefix 0b1010 (x1=1, y1=0, x2=1, y2=0) = x ∈ [0.75,1.0), y ∈ [0,0.25).
  const std::size_t morton = CountPrefix(index, 0b1010, 4);
  const std::size_t exact =
      points.ExactRangeCount(Box({0.75, 0.0}, {1.0, 0.25}));
  EXPECT_EQ(morton, exact);
}

TEST(MortonIndexTest, PrefixCountsMatchExactBoxCounts4D) {
  Rng rng(4);
  const PointSet points = RandomPoints(30000, 4, rng);
  const MortonIndex index(points, Box::UnitCube(4));
  // Depth-1 cell (4 bits): lower half in dims 0 and 2, upper in 1 and 3.
  // Bit order: (d0, d1, d2, d3) → prefix 0b0101.
  const std::size_t morton = CountPrefix(index, 0b0101, 4);
  const std::size_t exact = points.ExactRangeCount(
      Box({0.0, 0.5, 0.0, 0.5}, {0.5, 1.0, 0.5, 1.0}));
  EXPECT_EQ(morton, exact);
}

TEST(MortonIndexTest, ChildrenPartitionParent) {
  Rng rng(5);
  const PointSet points = RandomPoints(10000, 2, rng);
  const MortonIndex index(points, Box::UnitCube(2));
  // For a few random prefixes, the two one-bit extensions partition.
  for (int bits = 0; bits <= 20; bits += 4) {
    const MortonKey prefix = 0b1001 & ((MortonKey{1} << bits) - 1);
    const std::size_t parent = CountPrefix(index, prefix, bits);
    const std::size_t left = CountPrefix(index, prefix << 1, bits + 1);
    const std::size_t right =
        CountPrefix(index, (prefix << 1) | 1, bits + 1);
    EXPECT_EQ(parent, left + right) << "bits=" << bits;
  }
}

TEST(MortonIndexTest, PointsOutsideRootAreClamped) {
  PointSet points(2);
  const std::vector<double> out_low = {-5.0, -5.0};
  const std::vector<double> out_high = {7.0, 7.0};
  points.Add(out_low);
  points.Add(out_high);
  const MortonIndex index(points, Box::UnitCube(2));
  EXPECT_EQ(CountPrefix(index, 0, 0), 2u);
  // Clamped to the corners: prefix 00 (lower-left) and 11 (upper-right).
  EXPECT_EQ(CountPrefix(index, 0b00, 2), 1u);
  EXPECT_EQ(CountPrefix(index, 0b11, 2), 1u);
}

TEST(MortonIndexTest, NonUnitRootBoxCountsMatchGeometry) {
  Rng rng(9);
  const Box root({-10.0, 5.0}, {30.0, 6.0});
  PointSet points(2);
  double p[2];
  for (int i = 0; i < 20000; ++i) {
    p[0] = -10.0 + 40.0 * rng.NextDouble();
    p[1] = 5.0 + 1.0 * rng.NextDouble();
    points.Add(p);
  }
  const MortonIndex index(points, root);
  // Depth-2 cell: x-upper then y-lower halves → prefix 0b10 over the
  // first split of x, then y.  Verify against the geometric box
  // [10, 30) x [5, 5.5).
  const std::size_t morton = CountPrefix(index, 0b10, 2);
  const std::size_t exact =
      points.ExactRangeCount(Box({10.0, 5.0}, {30.0, 5.5}));
  EXPECT_EQ(morton, exact);
}

TEST(MortonIndexTest, LevelsPerDimBudget) {
  Rng rng(6);
  const PointSet p2 = RandomPoints(10, 2, rng);
  const MortonIndex i2(p2, Box::UnitCube(2));
  EXPECT_EQ(i2.max_prefix_bits() / 2, 63);
  EXPECT_EQ(i2.max_prefix_bits(), 126);
  const PointSet p4 = RandomPoints(10, 4, rng);
  const MortonIndex i4(p4, Box::UnitCube(4));
  EXPECT_EQ(i4.max_prefix_bits() / 4, 31);
  EXPECT_EQ(i4.max_prefix_bits(), 124);
}

TEST(MortonIndexTest, DeepPrefixOfTightClusterKeepsCount) {
  // 1000 identical points stay together arbitrarily deep.
  PointSet points(2);
  const std::vector<double> p = {0.3, 0.3};
  for (int i = 0; i < 1000; ++i) points.Add(p);
  const MortonIndex index(points, Box::UnitCube(2));
  const MortonKey key = index.KeyOf(p);
  for (int bits = 0; bits <= index.max_prefix_bits(); bits += 6) {
    const MortonKey prefix = key >> (index.max_prefix_bits() - bits);
    EXPECT_EQ(CountPrefix(index, prefix, bits), 1000u) << bits;
  }
}

}  // namespace
}  // namespace privtree
