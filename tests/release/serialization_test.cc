// The universal synopsis envelope: save → LoadMethod → QueryBatch must be
// bit-for-bit identical to the fitted in-memory synopsis for every registry
// method, loaded metadata must reproduce the fit's accounting exactly, the
// legacy v1 text format must keep loading through the shim, and every
// corrupted input — truncation, bit flips, wrong magic, crafted headers —
// must fail with a clean Status, never a crash or a partial synopsis.
#include "release/serialization.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "release/builtin_methods.h"
#include "release/options.h"
#include "release/registry.h"
#include "spatial/box.h"
#include "spatial/point_set.h"
#include "spatial/serialization.h"
#include "spatial/spatial_histogram.h"

namespace privtree::release {
namespace {

PointSet TestPoints(std::size_t n = 4000, std::uint64_t seed = 0x5EED) {
  Rng rng(seed);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble() * rng.NextDouble();  // Skewed, so trees split.
    p[1] = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

struct MethodCase {
  std::string name;
  MethodOptions options;
};

/// Every registry method, with small grids so the suite stays fast, plus
/// non-default-option variants that exercise the options round-trip.
std::vector<MethodCase> AllCases() {
  return {
      {"privtree", {}},
      {"privtree", {{"dims_per_split", "1"}}},
      {"simpletree", {{"height", "5"}}},
      {"ug", {{"cell_scale", "2"}}},
      {"ag", {}},
      {"kdtree", {{"height", "6"}}},
      {"dawa", {{"target_total_cells", "4096"}}},
      {"hierarchy", {}},
      {"hierarchy", {{"constrained_inference", "false"}}},
      {"wavelet", {{"target_total_cells", "4096"}}},
  };
}

std::unique_ptr<Method> FitCase(const MethodCase& c, const PointSet& points,
                                std::uint64_t seed) {
  auto method = GlobalMethodRegistry().Create(c.name, c.options);
  PrivacyBudget budget(1.0);
  Rng rng(seed);
  method->Fit(points, Box::UnitCube(2), budget, rng);
  return method;
}

std::string SaveToString(const Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  return std::move(out).str();
}

Result<std::unique_ptr<Method>> LoadFromString(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadMethod(in);
}

TEST(SynopsisSerializationTest, EveryMethodRoundTripsBitForBit) {
  const PointSet points = TestPoints();
  Rng query_rng(0xBEEF);
  const std::vector<Box> queries = GenerateRangeQueries(
      Box::UnitCube(2), 60, kMediumQueries, query_rng);

  std::uint64_t seed = 17;
  for (const MethodCase& c : AllCases()) {
    SCOPED_TRACE(c.name + " [" + c.options.ToString() + "]");
    const auto fitted = FitCase(c, points, seed++);
    const std::string bytes = SaveToString(*fitted);

    auto loaded = LoadFromString(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // Accounting must be restored identically to the fresh fit.
    const MethodMetadata want = fitted->Metadata();
    const MethodMetadata got = loaded.value()->Metadata();
    EXPECT_EQ(got.method, want.method);
    EXPECT_EQ(got.dim, want.dim);
    EXPECT_EQ(got.epsilon_spent, want.epsilon_spent);
    EXPECT_EQ(got.synopsis_size, want.synopsis_size);
    EXPECT_EQ(got.height, want.height);

    // And every served answer must match bit for bit — both the batch path
    // and the scalar path.
    const std::vector<double> want_batch = fitted->QueryBatch(queries);
    const std::vector<double> got_batch = loaded.value()->QueryBatch(queries);
    ASSERT_EQ(got_batch.size(), want_batch.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got_batch[i], want_batch[i]) << "query " << i;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(loaded.value()->Query(queries[i]), fitted->Query(queries[i]))
          << "query " << i;
    }
  }
}

TEST(SynopsisSerializationTest, SaveBeforeFitIsRejected) {
  for (const std::string& name : GlobalMethodRegistry().Names()) {
    const auto method = GlobalMethodRegistry().Create(name);
    std::ostringstream out;
    EXPECT_FALSE(method->Save(out).ok()) << name;
  }
}

TEST(SynopsisSerializationTest, V1TextFilesLoadThroughTheShim) {
  // A v1 file an old build wrote (tests/golden), beside the v3 envelope of
  // the same fit.
  const std::string golden = PRIVTREE_GOLDEN_DIR;
  auto loaded = LoadMethodFromFile(golden + "/privtree.v1.txt");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto twin = LoadMethodFromFile(golden + "/privtree.v3.syn");
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();

  // v1 files record neither method name nor ε: they come back as a
  // "privtree" release with unknown (zero) spent budget...
  const MethodMetadata metadata = loaded.value()->Metadata();
  EXPECT_EQ(metadata.method, "privtree");
  EXPECT_EQ(metadata.dim, 2u);
  EXPECT_EQ(metadata.epsilon_spent, 0.0);
  EXPECT_EQ(metadata.synopsis_size, twin.value()->Metadata().synopsis_size);

  // ...but answer queries exactly like the histogram they persisted.
  Rng query_rng(0xBEEF);
  for (const Box& q : GenerateRangeQueries(Box::UnitCube(2), 40,
                                           kMediumQueries, query_rng)) {
    EXPECT_EQ(loaded.value()->Query(q), twin.value()->Query(q));
  }
}

TEST(SynopsisSerializationTest, LoadedSynopsisRoundTripsAgain) {
  // Save → load → save must reproduce the original bytes: nothing about
  // the release is lost in a load.
  const PointSet points = TestPoints(2000);
  const auto fitted = FitCase({"ag", {}}, points, 29);
  const std::string bytes = SaveToString(*fitted);
  auto loaded = LoadFromString(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(SaveToString(*loaded.value()), bytes);
}

class SynopsisCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const PointSet points = TestPoints(1500);
    tree_bytes_ = SaveToString(*FitCase({"privtree", {}}, points, 7));
    grid_bytes_ = SaveToString(
        *FitCase({"dawa", {{"target_total_cells", "256"}}}, points, 7));
  }

  std::string tree_bytes_;
  std::string grid_bytes_;
};

TEST_F(SynopsisCorruptionTest, EveryTruncationFailsCleanly) {
  for (const std::string* bytes : {&tree_bytes_, &grid_bytes_}) {
    const std::size_t step = std::max<std::size_t>(1, bytes->size() / 211);
    for (std::size_t len = 0; len < bytes->size(); len += step) {
      auto loaded = LoadFromString(bytes->substr(0, len));
      EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    }
  }
}

TEST_F(SynopsisCorruptionTest, EveryBitFlipFailsCleanly) {
  // The body checksum (and the header field checks) must catch any single
  // bit flip; a flipped released count silently served would be a wrong
  // answer with no diagnostic.
  for (const std::string* original : {&tree_bytes_, &grid_bytes_}) {
    const std::size_t step = std::max<std::size_t>(1, original->size() / 149);
    for (std::size_t pos = 0; pos < original->size(); pos += step) {
      std::string flipped = *original;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << (pos % 8)));
      auto loaded = LoadFromString(flipped);
      EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    }
  }
}

TEST_F(SynopsisCorruptionTest, WrongMagicAndGarbageAreRejected) {
  for (const std::string& bytes :
       {std::string(), std::string("PRIVTSYM"), std::string("garbage"),
        std::string(200, '\0'), std::string(200, '\xff')}) {
    auto loaded = LoadFromString(bytes);
    EXPECT_FALSE(loaded.ok());
  }
}

TEST_F(SynopsisCorruptionTest, TrailingBytesAreRejected) {
  auto loaded = LoadFromString(tree_bytes_ + "x");
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SynopsisCorruptionTest, UnknownMethodIsRejected) {
  std::ostringstream out;
  MethodMetadata metadata;
  metadata.method = "nope";
  metadata.dim = 2;
  ASSERT_TRUE(WriteSynopsis(out, metadata, "", "").ok());
  auto loaded = LoadFromString(std::move(out).str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SynopsisCorruptionTest, UnknownOptionKeyIsRejected) {
  std::ostringstream out;
  MethodMetadata metadata;
  metadata.method = "ug";
  metadata.dim = 2;
  ASSERT_TRUE(WriteSynopsis(out, metadata, "no_such_key=1", "").ok());
  auto loaded = LoadFromString(std::move(out).str());
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace privtree::release
