// The fit indexes a release::Dataset keeps: every copy shares one slot, the
// Morton index is built once and lives as long as the last copy, the slot
// retains one PstOccurrences layout however the fitted l⊤ alternates, and
// the `dataset.index_bytes` gauge follows exactly what the slots retain.
// Fits through the slot release the same synopses as the direct builders.
#include "release/dataset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dp/rng.h"
#include "obs/metrics.h"
#include "release/session.h"
#include "seq/pst_occurrences.h"
#include "seq/sequence.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"

namespace privtree::release {
namespace {

std::uint64_t IndexBytes() {
  return obs::Registry::Global().GetGauge("dataset.index_bytes").Value();
}

PointSet TestPoints(std::size_t n) {
  Rng rng(0x1DE);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble() * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

SequenceDataset TestSequences() {
  Rng rng(0x5E0);
  SequenceDataset data(4);
  std::vector<Symbol> s;
  for (int i = 0; i < 200; ++i) {
    s.clear();
    const std::size_t len = 1 + rng.NextBounded(20);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(4)));
    }
    data.Add(s, /*has_end=*/rng.NextDouble() < 0.8);
  }
  return data;
}

std::string Saved(const Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  return out.str();
}

TEST(DatasetIndexTest, CopiesShareOneMortonIndex) {
  const PointSet points = TestPoints(500);
  const std::uint64_t before = IndexBytes();
  {
    const Dataset data(points, Box::UnitCube(2));
    EXPECT_EQ(IndexBytes(), before);  // Built lazily, by the first fit.
    const Dataset copy = data;
    const MortonIndex& index = copy.morton_index();
    EXPECT_EQ(&data.morton_index(), &index);
    EXPECT_EQ(index.size(), points.size());
    EXPECT_EQ(IndexBytes() - before, 16u * points.size());

    // A separate Dataset over the same points has a slot of its own.
    const Dataset other(points, Box::UnitCube(2));
    EXPECT_NE(&other.morton_index(), &index);
    EXPECT_EQ(IndexBytes() - before, 2 * 16u * points.size());
  }
  EXPECT_EQ(IndexBytes(), before);  // The last copies took theirs along.
}

TEST(DatasetIndexTest, IndexOutlivesTheDatasetItWasBuiltThrough) {
  const PointSet points = TestPoints(300);
  const std::uint64_t before = IndexBytes();
  std::optional<Dataset> kept;
  {
    const Dataset data(points, Box::UnitCube(2));
    kept.emplace(data);
    EXPECT_EQ(data.morton_index().size(), points.size());
  }
  EXPECT_EQ(IndexBytes() - before, 16u * points.size());
  EXPECT_EQ(kept->morton_index().size(), points.size());
  kept.reset();
  EXPECT_EQ(IndexBytes(), before);
}

TEST(DatasetIndexTest, AlternatingLTopRetainsOneLayout) {
  const SequenceDataset sequences = TestSequences();
  const std::uint64_t before = IndexBytes();
  {
    const Dataset data(sequences);
    std::shared_ptr<const PstOccurrences> in_flight;
    for (const std::size_t l_top : {5u, 12u, 5u, 5u, 12u, 40u}) {
      const auto layout = data.occurrences(l_top);
      EXPECT_EQ(layout->l_top(), l_top);
      // The slot holds exactly this layout, never the one it replaced.
      EXPECT_EQ(IndexBytes() - before, layout->MemoryBytes());
      EXPECT_EQ(layout->MemoryBytes(),
                PstOccurrences(sequences, l_top).MemoryBytes());
      // The same l⊤ again reuses it.
      EXPECT_EQ(data.occurrences(l_top), layout);
      // A layout a fit still holds stays valid after it is replaced.
      if (in_flight) {
        EXPECT_GE(in_flight->padded().size(), 1u);
      }
      in_flight = layout;
    }
  }
  EXPECT_EQ(IndexBytes(), before);
}

TEST(DatasetIndexTest, SharedIndexFitsMatchFreshDatasets) {
  // One Dataset serves a run of releases; each must equal the release of a
  // session over a fresh Dataset, whose index is built for that fit alone.
  const PointSet points = TestPoints(800);
  const SequenceDataset sequences = TestSequences();
  const Dataset spatial(points, Box::UnitCube(2));
  const Dataset sequence(sequences);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const char* method : {"privtree", "simpletree"}) {
      ReleaseSession shared(spatial, 1.0, seed);
      ReleaseSession fresh(Dataset(points, Box::UnitCube(2)), 1.0, seed);
      EXPECT_EQ(Saved(*shared.ReleaseRemaining(method)),
                Saved(*fresh.ReleaseRemaining(method)))
          << method << " seed " << seed;
    }
    for (const char* method : {"pst_privtree", "ngram"}) {
      for (const char* l_top : {"8", "15"}) {
        MethodOptions options;
        options.Set("l_top", l_top);
        ReleaseSession shared(sequence, 1.0, seed);
        ReleaseSession fresh(Dataset(sequences), 1.0, seed);
        EXPECT_EQ(Saved(*shared.ReleaseRemaining(method, options)),
                  Saved(*fresh.ReleaseRemaining(method, options)))
            << method << " l_top " << l_top << " seed " << seed;
      }
    }
  }
}

TEST(DatasetIndexDeathTest, WrongKindIndexAborts) {
  PointSet points(2);
  points.Add(std::vector<double>{0.25, 0.5});
  const SequenceDataset sequences = TestSequences();
  const Dataset spatial(points, Box::UnitCube(2));
  const Dataset sequence(sequences);
  EXPECT_DEATH(spatial.occurrences(5), "PRIVTREE_CHECK");
  EXPECT_DEATH(sequence.morton_index(), "PRIVTREE_CHECK");
}

}  // namespace
}  // namespace privtree::release
