// The legacy `privtree-pst v1` text format.  Nothing writes it any more;
// tests/golden/pst_privtree.v1.txt is a file an old build wrote, and the
// parser must keep loading it and reject every malformed variant.
#include "seq/pst_serialization.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace privtree {
namespace {

Result<PstModel> Parse(const std::string& text) {
  std::istringstream in(text);
  return LoadPstModelStream(in, "<test>");
}

TEST(PstSerializationTest, GoldenV1FileLoadsItsModel) {
  std::ifstream in(std::string(PRIVTREE_GOLDEN_DIR) + "/pst_privtree.v1.txt");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto loaded = Parse(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PstModel& model = loaded.value();
  EXPECT_EQ(model.alphabet_size(), 4u);
  ASSERT_GT(model.size(), 1u);
  // Children come in sibling groups of β = alphabet + 1.
  for (std::size_t i = 0; i < model.size(); ++i) {
    const auto& node = model.node(static_cast<NodeId>(i));
    EXPECT_EQ(node.hist.size(), 5u);
    EXPECT_TRUE(node.children.empty() || node.children.size() == 5u) << i;
  }
}

TEST(PstSerializationTest, BadHeadersAreInvalidArgument) {
  EXPECT_EQ(Parse("privtree-pst v1\nalphabet 0\nnodes 1\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("wrong\n").status().code(), StatusCode::kInvalidArgument);
}

TEST(PstSerializationTest, InconsistentFanoutIsRejected) {
  // 2 symbols ⇒ β = 3; nodes = 3 would mean (3−1) % 3 ≠ 0.
  EXPECT_EQ(Parse("privtree-pst v1\nalphabet 2\nnodes 3\n"
                  "-1 1 1 1\n0 1 0 0\n0 0 1 0\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PstSerializationTest, FracturedSiblingGroupIsRejected) {
  // β = 2 (alphabet 1): nodes 0 (root), then a group claiming two
  // different parents.
  EXPECT_EQ(Parse("privtree-pst v1\nalphabet 1\nnodes 5\n"
                  "-1 1 1\n0 1 0\n0 0 1\n1 1 0\n2 0 1\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace privtree
