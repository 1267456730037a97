// Synopsis files written by earlier releases load forever.  tests/golden
// holds frozen v1 text, v2 and v3 envelopes of the same fits (see its
// README); these tests pin that every legacy file answers a fixed query list
// bit for bit like its v3 twin, that re-saving a v2 load writes the v3
// golden's exact bytes (which also pins the v3 writer), that the compressed
// tree envelopes stay at most half their v2 size, and that
// ProbeSynopsisFile rules on every version.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dp/rng.h"
#include "eval/workload.h"
#include "release/method.h"
#include "release/sequence_query.h"
#include "release/serialization.h"
#include "spatial/box.h"

namespace privtree::release {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(PRIVTREE_GOLDEN_DIR) + "/" + name;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(GoldenPath(name), std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::unique_ptr<Method> LoadGolden(const std::string& name) {
  std::istringstream in(ReadGolden(name));
  auto loaded = LoadMethod(in);
  EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
  return loaded.ok() ? std::move(loaded).value() : nullptr;
}

std::string SaveToString(const Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  return std::move(out).str();
}

std::vector<Box> SpatialQueries() {
  Rng rng(0xBEEF);
  std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(2), 60, kMediumQueries, rng);
  queries.push_back(Box::UnitCube(2));
  queries.push_back(Box({0.0, 0.25}, {0.5, 0.75}));
  return queries;
}

std::vector<SequenceQuery> SequenceQueries() {
  return {SequenceQuery::Frequency({0}), SequenceQuery::Frequency({1, 2}),
          SequenceQuery::Frequency({3, 3, 3}),
          SequenceQuery::PrefixCount({0, 1}), SequenceQuery::PrefixCount({2}),
          SequenceQuery::TopK(1, 3), SequenceQuery::TopK(5, 3)};
}

void ExpectSameAnswers(const Method& got, const Method& want,
                       bool sequence) {
  std::vector<double> a, b;
  if (sequence) {
    const std::vector<SequenceQuery> queries = SequenceQueries();
    a = got.QueryBatch(std::span<const SequenceQuery>(queries));
    b = want.QueryBatch(std::span<const SequenceQuery>(queries));
  } else {
    const std::vector<Box> queries = SpatialQueries();
    a = got.QueryBatch(queries);
    b = want.QueryBatch(queries);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "query " << i;
  }
}

bool IsSequence(const std::string& name) {
  return name == "pst_privtree" || name == "ngram";
}

TEST(GoldenSynopsisTest, V2FilesAnswerLikeTheirV3TwinAndResaveToItsBytes) {
  for (const char* name :
       {"privtree", "simpletree", "kdtree", "ag", "pst_privtree", "ngram"}) {
    SCOPED_TRACE(name);
    const std::string v3_bytes = ReadGolden(std::string(name) + ".v3.syn");
    const auto v2 = LoadGolden(std::string(name) + ".v2.syn");
    const auto v3 = LoadGolden(std::string(name) + ".v3.syn");
    ASSERT_TRUE(v2 && v3);
    EXPECT_EQ(v2->Metadata().method, name);
    EXPECT_EQ(v2->Metadata().epsilon_spent, v3->Metadata().epsilon_spent);
    EXPECT_EQ(v2->Metadata().synopsis_size, v3->Metadata().synopsis_size);
    EXPECT_EQ(v2->Metadata().height, v3->Metadata().height);
    ExpectSameAnswers(*v2, *v3, IsSequence(name));
    // An old spill file migrates to v3 with nothing lost, and the v3 writer
    // still writes exactly the frozen bytes.
    EXPECT_EQ(SaveToString(*v2), v3_bytes);
    EXPECT_EQ(SaveToString(*v3), v3_bytes);
  }
}

TEST(GoldenSynopsisTest, V1TextFilesAnswerLikeTheirV3TwinWithZeroEpsilon) {
  for (const char* name : {"privtree", "pst_privtree"}) {
    SCOPED_TRACE(name);
    const auto v1 = LoadGolden(std::string(name) + ".v1.txt");
    const auto v3 = LoadGolden(std::string(name) + ".v3.syn");
    ASSERT_TRUE(v1 && v3);
    // v1 files record no ε: they come back with an unknown (zero) budget.
    EXPECT_EQ(v1->Metadata().method, name);
    EXPECT_EQ(v1->Metadata().epsilon_spent, 0.0);
    EXPECT_EQ(v1->Metadata().dim, v3->Metadata().dim);
    EXPECT_EQ(v1->Metadata().synopsis_size, v3->Metadata().synopsis_size);
    // 17 significant digits round-trip doubles, so answers match exactly.
    ExpectSameAnswers(*v1, *v3, IsSequence(name));
  }
}

TEST(GoldenSynopsisTest, CompressedTreeEnvelopesAreAtMostHalfTheirV2Size) {
  for (const char* name : {"privtree", "simpletree", "kdtree"}) {
    SCOPED_TRACE(name);
    const std::size_t v2 = ReadGolden(std::string(name) + ".v2.syn").size();
    const std::size_t v3 = ReadGolden(std::string(name) + ".v3.syn").size();
    EXPECT_LE(v3 * 2, v2) << "v3=" << v3 << " v2=" << v2;
  }
  // AG's noisy doubles do not pack, but the codec still shrinks it.
  EXPECT_LT(ReadGolden("ag.v3.syn").size(), ReadGolden("ag.v2.syn").size());
}

class ProbeGoldenTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : scratch_) std::remove(path.c_str());
  }

  /// Writes `bytes` to a fresh temporary file and returns its path.
  std::string WriteScratch(const std::string& bytes) {
    const std::string path = ::testing::TempDir() + "/probe_golden_" +
                             std::to_string(scratch_.size()) + ".syn";
    std::ofstream(path, std::ios::binary) << bytes;
    scratch_.push_back(path);
    return path;
  }

  std::vector<std::string> scratch_;
};

TEST_F(ProbeGoldenTest, EveryVersionProbesOk) {
  for (const char* name :
       {"privtree.v1.txt", "pst_privtree.v1.txt", "privtree.v2.syn",
        "ngram.v2.syn", "privtree.v3.syn", "ag.v3.syn"}) {
    std::uint64_t scanned = 0;
    const Status s = ProbeSynopsisFile(GoldenPath(name), &scanned);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
    EXPECT_GT(scanned, 0u) << name;
  }
}

TEST_F(ProbeGoldenTest, V2ReadsTheWholeFileAndV3OnlyTheHeader) {
  const std::string v2 = ReadGolden("privtree.v2.syn");
  const std::string v3 = ReadGolden("privtree.v3.syn");
  std::uint64_t v2_scanned = 0, v3_scanned = 0;
  ASSERT_TRUE(ProbeSynopsisFile(GoldenPath("privtree.v2.syn"), &v2_scanned)
                  .ok());
  ASSERT_TRUE(ProbeSynopsisFile(GoldenPath("privtree.v3.syn"), &v3_scanned)
                  .ok());
  EXPECT_EQ(v2_scanned, v2.size());
  EXPECT_LE(v3_scanned, 64u);
}

TEST_F(ProbeGoldenTest, DamagedV2CopiesAreRejectedWithTheReason) {
  const std::string v2 = ReadGolden("kdtree.v2.syn");
  const Status truncated =
      ProbeSynopsisFile(WriteScratch(v2.substr(0, v2.size() - 9)));
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.message().find("truncated body"), std::string::npos)
      << truncated.ToString();

  std::string flipped = v2;
  flipped[v2.size() / 2] = static_cast<char>(flipped[v2.size() / 2] ^ 0x10);
  const Status mismatch = ProbeSynopsisFile(WriteScratch(flipped));
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("checksum mismatch"), std::string::npos)
      << mismatch.ToString();
}

TEST_F(ProbeGoldenTest, TruncatedV3CopyIsRejectedFromTheHeaderAlone) {
  const std::string v3 = ReadGolden("kdtree.v3.syn");
  std::uint64_t scanned = 0;
  const Status s =
      ProbeSynopsisFile(WriteScratch(v3.substr(0, v3.size() - 9)), &scanned);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated body"), std::string::npos)
      << s.ToString();
  EXPECT_LE(scanned, 64u);
}

}  // namespace
}  // namespace privtree::release
