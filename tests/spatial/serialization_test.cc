// The legacy v1 text format of spatial synopses.  Nothing writes it any
// more; tests/golden/privtree.v1.txt is a file an old build wrote, and the
// parser must keep loading it and reject every malformed variant.
#include "spatial/serialization.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace privtree {
namespace {

Result<SpatialHistogram> Parse(const std::string& text) {
  std::istringstream in(text);
  return LoadSpatialHistogramText(in, "<test>");
}

TEST(SerializationTest, GoldenV1FileLoadsItsTree) {
  std::ifstream in(std::string(PRIVTREE_GOLDEN_DIR) + "/privtree.v1.txt");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto loaded = Parse(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SpatialHistogram& hist = loaded.value();
  ASSERT_GT(hist.tree.size(), 1u);
  EXPECT_EQ(hist.count.size(), hist.tree.size());
  EXPECT_EQ(hist.tree.node(0).domain.box, Box::UnitCube(2));
  for (std::size_t i = 1; i < hist.tree.size(); ++i) {
    const auto& node = hist.tree.node(static_cast<NodeId>(i));
    ASSERT_LT(static_cast<std::size_t>(node.parent), i);
    EXPECT_TRUE(hist.tree.node(node.parent).domain.box.ContainsBox(
        node.domain.box));
  }
}

TEST(SerializationTest, BadMagicIsInvalidArgument) {
  const auto loaded = Parse("not-a-histogram\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, TruncatedFileIsInvalidArgument) {
  const auto loaded =
      Parse("privtree-histogram v1\ndim 2\nnodes 3\n-1 10 0 1 0 1\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, ForwardParentReferenceIsRejected) {
  const auto loaded = Parse(
      "privtree-histogram v1\ndim 1\nnodes 2\n-1 10 0 1\n5 3 0 0.5\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, V1TextFormatIsPinnedForever) {
  // The v1 layout is frozen: files written by old builds must keep loading
  // even though new synopses are written in the binary envelope.  This
  // literal file IS the format — do not regenerate it from code.
  const auto loaded = Parse(
      "privtree-histogram v1\n"
      "dim 2\n"
      "nodes 3\n"
      "-1 10.5 0 1 0 1\n"
      "0 4.25 0 0.5 0 1\n"
      "0 6.25 0.5 1 0 1\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().tree.size(), 3u);
  EXPECT_EQ(loaded.value().count[0], 10.5);
  EXPECT_EQ(loaded.value().count[1], 4.25);
  EXPECT_EQ(loaded.value().count[2], 6.25);
  EXPECT_EQ(loaded.value().tree.node(1).parent, 0);
  EXPECT_EQ(loaded.value().tree.node(1).domain.box,
            Box({0.0, 0.0}, {0.5, 1.0}));
  // Full-domain query serves the released root count.
  EXPECT_DOUBLE_EQ(loaded.value().Query(Box({0.0, 0.0}, {1.0, 1.0})), 10.5);
}

}  // namespace
}  // namespace privtree
