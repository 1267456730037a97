#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dp/rng.h"

namespace privtree {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/privtree_csv_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, PointsRoundTrip) {
  PointSet points(2);
  Rng rng(1);
  double p[2];
  for (int i = 0; i < 100; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble();
    points.Add(p);
  }
  ASSERT_TRUE(SavePointsCsv(path_, points).ok());
  auto loaded = LoadPointsCsv(path_, 2);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(loaded.value().point(i)[0], points.point(i)[0]);
    EXPECT_DOUBLE_EQ(loaded.value().point(i)[1], points.point(i)[1]);
  }
}

TEST_F(CsvTest, PointsSkipCommentsAndBlankLines) {
  WriteFile("# header\n0.1,0.2\n\n0.3,0.4\n");
  auto loaded = LoadPointsCsv(path_, 2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 2u);
}

TEST_F(CsvTest, PointsWrongFieldCountIsInvalidArgument) {
  WriteFile("0.1,0.2,0.3\n");
  const auto loaded = LoadPointsCsv(path_, 2);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, PointsBadNumberIsInvalidArgument) {
  WriteFile("0.1,zebra\n");
  const auto loaded = LoadPointsCsv(path_, 2);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, PointsNonFiniteFieldIsInvalidArgument) {
  // strtod parses all of these; none is a point the index can place.
  for (const char* field : {"nan", "-NaN", "inf", "-Infinity", "nan(7)"}) {
    WriteFile(std::string("0.1,0.2\n0.3,") + field + "\n");
    const auto loaded = LoadPointsCsv(path_, 2);
    ASSERT_FALSE(loaded.ok()) << field;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << field;
  }
}

TEST_F(CsvTest, MissingFileIsIOError) {
  const auto loaded = LoadPointsCsv("/nonexistent/nope.csv", 2);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, SequencesRoundTrip) {
  SequenceDataset data(5);
  data.Add(std::vector<Symbol>{0, 1, 2});
  data.Add(std::vector<Symbol>{4});
  ASSERT_TRUE(SaveSequencesCsv(path_, data).ok());
  auto loaded = LoadSequencesCsv(path_, 5);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().sequence(0)[2], 2);
  EXPECT_EQ(loaded.value().sequence(1)[0], 4);
}

TEST_F(CsvTest, SequencesOutOfAlphabetIsInvalidArgument) {
  WriteFile("0 1 9\n");
  const auto loaded = LoadSequencesCsv(path_, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, SequencesNegativeSymbolIsInvalidArgument) {
  WriteFile("0 -3\n");
  const auto loaded = LoadSequencesCsv(path_, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, SequencesBadTokenIsInvalidArgument) {
  WriteFile("0 banana 1\n");
  const auto loaded = LoadSequencesCsv(path_, 5);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ZeroDimIsInvalidArgument) {
  const auto loaded = LoadPointsCsv(path_, 0);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace privtree
