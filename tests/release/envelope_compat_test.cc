// Envelope robustness beyond the plain round trip.  The v2/v1 loads, their
// upgrade-on-save and the v3 size bar are pinned against frozen files in
// tests/release/golden_synopsis_test.cc; this file pins:
//
//  * the opt-in `count_quantum` knob round-trips bitwise and shrinks the
//    envelope further;
//  * a *valid-checksum* envelope wrapping a corrupted compressed payload —
//    the adversarial case the body checksum cannot catch — fails cleanly
//    or loads something that answers and re-saves, never crashes (swept
//    under ASan in CI's hardening job), for tree bodies with explicit
//    bounds (kd-tree) and fanout 16 (4-d privtree) as well as the 2-d
//    ones, and a crafted non-finite box bound is refused.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/byteio.h"
#include "dp/budget.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "release/registry.h"
#include "release/serialization.h"
#include "release/session.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::release {
namespace {

PointSet TestPoints(std::size_t n = 4000, std::uint64_t seed = 0x5EED,
                    std::size_t dim = 2) {
  Rng rng(seed);
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble() * rng.NextDouble();  // Skewed, so trees split.
    for (std::size_t j = 1; j < dim; ++j) p[j] = rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::unique_ptr<Method> FitSpatial(const std::string& name,
                                   const MethodOptions& options,
                                   const PointSet& points,
                                   std::uint64_t seed) {
  auto method = GlobalMethodRegistry().Create(name, options);
  PrivacyBudget budget(1.0);
  Rng rng(seed);
  method->Fit(points, Box::UnitCube(points.dim()), budget, rng);
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

/// The envelope pulled apart: header fields checked, body fields parsed,
/// per-backend payload left as raw bytes.
struct ParsedEnvelope {
  MethodMetadata metadata;
  std::string options_text;
  std::string payload;
};

constexpr std::size_t kV3HeaderSize = 36;  // See release/serialization.h.

ParsedEnvelope ParseV3(const std::string& bytes) {
  ParsedEnvelope parsed;
  EXPECT_GE(bytes.size(), kV3HeaderSize);
  EXPECT_EQ(bytes.substr(0, 8), kSynopsisMagic);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, kSynopsisFormatVersion);

  ByteReader body(std::string_view(bytes).substr(kV3HeaderSize));
  std::uint64_t dim = 0, synopsis_size = 0;
  std::int32_t height = 0;
  EXPECT_TRUE(body.Str(&parsed.metadata.method));
  EXPECT_TRUE(body.Str(&parsed.options_text));
  EXPECT_TRUE(body.U64(&dim));
  EXPECT_TRUE(body.F64(&parsed.metadata.epsilon_spent));
  EXPECT_TRUE(body.U64(&synopsis_size));
  EXPECT_TRUE(body.I32(&height));
  parsed.metadata.dim = static_cast<std::size_t>(dim);
  parsed.metadata.synopsis_size = static_cast<std::size_t>(synopsis_size);
  parsed.metadata.height = height;
  parsed.payload = bytes.substr(bytes.size() - body.remaining());
  return parsed;
}

TEST(EnvelopeCompatTest, QuantizedCountsRoundTripBitwiseAndShrinkFurther) {
  const PointSet points = TestPoints();
  Rng query_rng(0xBEEF);
  const std::vector<Box> queries = GenerateRangeQueries(
      Box::UnitCube(2), 40, kMediumQueries, query_rng);

  const auto raw = FitSpatial("privtree", {}, points, 61);
  const auto quantized = FitSpatial(
      "privtree", {{"count_quantum", "0.5"}}, points, 61);

  // The quantized synopsis round-trips bit for bit like any other...
  const std::string bytes = SaveToString(*quantized);
  auto loaded = LoadFromString(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<double> want = quantized->QueryBatch(queries);
  const std::vector<double> got = loaded.value()->QueryBatch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
  EXPECT_EQ(SaveToString(*loaded.value()), bytes);

  // ...and the integer count section beats the raw-doubles envelope.
  EXPECT_LT(bytes.size(), SaveToString(*raw).size());
}

TEST(EnvelopeCompatTest, InfiniteBoxBoundUnderValidChecksumsIsRejected) {
  // Checksums are not secret: a crafted envelope with valid header and body
  // checksums can carry a -inf domain bound, which Box's constructor would
  // abort on.  Every box-bearing payload must refuse it with a Status.
  const PointSet points = TestPoints(1000);
  struct Case {
    std::string name;
    MethodOptions options;
  };
  const std::vector<Case> cases = {
      {"privtree", {}},
      {"kdtree", {{"height", "4"}}},
      {"ug", {}},
      {"ag", {}},
      {"hierarchy", {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ParsedEnvelope env =
        ParseV3(SaveToString(*FitSpatial(c.name, c.options, points, 5)));
    // Offset of the first box bound (lo_0) in the payload.
    std::size_t offset = 0;
    if (c.name == "privtree" || c.name == "kdtree") {
      ByteReader in(env.payload);  // u64 node count, packed parents, box.
      std::uint64_t nodes = 0;
      std::string parents;
      ASSERT_TRUE(in.U64(&nodes) && in.Str(&parents));
      offset = env.payload.size() - in.remaining();
    } else if (c.name == "ag") {
      offset = 8;  // i64 m1, then the domain box.
    }
    const double minus_inf = -std::numeric_limits<double>::infinity();
    ASSERT_LE(offset + sizeof(minus_inf), env.payload.size());
    std::memcpy(env.payload.data() + offset, &minus_inf, sizeof(minus_inf));
    std::ostringstream out;
    ASSERT_TRUE(
        WriteSynopsis(out, env.metadata, env.options_text, env.payload).ok());
    auto loaded = LoadFromString(std::move(out).str());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

class CompressedPayloadCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const PointSet points = TestPoints(1500);
    envelopes_.push_back(SaveToString(*FitSpatial("privtree", {}, points, 7)));
    envelopes_.push_back(SaveToString(*FitSpatial("ag", {}, points, 7)));
    // Noisy-median splits: the tree body's explicit bounds.
    envelopes_.push_back(
        SaveToString(*FitSpatial("kdtree", {{"height", "6"}}, points, 7)));
    // Fanout 16: 4-d bound codes and wide sibling blocks.
    envelopes_.push_back(SaveToString(
        *FitSpatial("privtree", {}, TestPoints(1500, 0x4D, 4), 7)));

    Rng rng(0x5EC);
    SequenceDataset data(4);
    std::vector<Symbol> s;
    for (std::size_t i = 0; i < 150; ++i) {
      s.clear();
      for (std::size_t j = 0; j <= rng.NextBounded(10); ++j) {
        s.push_back(static_cast<Symbol>(rng.NextBounded(4)));
      }
      data.Add(s);
    }
    MethodOptions options;
    options.Set("l_top", "10");
    const SequenceDataset truncated = data.Truncate(10);
    ReleaseSession session(truncated, 1.0, 0x11);
    envelopes_.push_back(
        SaveToString(*session.ReleaseRemaining("pst_privtree", options)));
  }

  std::vector<std::string> envelopes_;
};

TEST_F(CompressedPayloadCorruptionTest, EveryTruncationFailsCleanly) {
  for (const std::string& bytes : envelopes_) {
    const std::size_t step = std::max<std::size_t>(1, bytes.size() / 211);
    for (std::size_t len = 0; len < bytes.size(); len += step) {
      auto loaded = LoadFromString(bytes.substr(0, len));
      EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    }
  }
}

TEST_F(CompressedPayloadCorruptionTest, EveryBitFlipFailsCleanly) {
  for (const std::string& original : envelopes_) {
    const std::size_t step = std::max<std::size_t>(1, original.size() / 149);
    for (std::size_t pos = 0; pos < original.size(); pos += step) {
      std::string flipped = original;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << (pos % 8)));
      auto loaded = LoadFromString(flipped);
      EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
    }
  }
}

TEST_F(CompressedPayloadCorruptionTest,
       ValidChecksumOverCorruptPayloadNeverCrashes) {
  // The body checksum catches a flipped *file*; here the adversary writes
  // a whole new envelope (valid header, valid checksum) around a damaged
  // compressed payload, so the decoders themselves must reject or survive
  // every byte: lying element counts, impossible bit widths, truncated
  // code streams, hostile granularities.  ASan in CI turns any overread
  // into a hard failure.
  for (const std::string& bytes : envelopes_) {
    const ParsedEnvelope env = ParseV3(bytes);
    const std::size_t step = std::max<std::size_t>(1, env.payload.size() / 97);
    for (std::size_t pos = 0; pos < env.payload.size(); pos += step) {
      for (const unsigned char mask : {0x01, 0x80, 0xff}) {
        ParsedEnvelope hostile = env;
        hostile.payload[pos] =
            static_cast<char>(hostile.payload[pos] ^ mask);
        std::ostringstream out;
        ASSERT_TRUE(WriteSynopsis(out, hostile.metadata, hostile.options_text,
                                  hostile.payload)
                        .ok());
        auto loaded = LoadFromString(std::move(out).str());
        // Most flips must fail; a benign flip (e.g. inside a stored double)
        // may load — then the synopsis must still be fully functional.
        if (loaded.ok()) {
          std::ostringstream resaved;
          EXPECT_TRUE(loaded.value()->Save(resaved).ok());
          if (hostile.metadata.method != "pst_privtree") {
            const Box domain = Box::UnitCube(hostile.metadata.dim);
            loaded.value()->Query(domain);
            loaded.value()->QueryBatch(std::span<const Box>(&domain, 1));
          }
        }
      }
    }
    // Truncating the payload inside a valid envelope must always fail: the
    // decoders demand full consumption.
    for (std::size_t len = 0; len < env.payload.size();
         len += std::max<std::size_t>(1, env.payload.size() / 53)) {
      ParsedEnvelope hostile = env;
      hostile.payload.resize(len);
      std::ostringstream out;
      ASSERT_TRUE(WriteSynopsis(out, hostile.metadata, hostile.options_text,
                                hostile.payload)
                      .ok());
      EXPECT_FALSE(LoadFromString(std::move(out).str()).ok())
          << env.metadata.method << " payload truncated to " << len;
    }
  }
}

}  // namespace
}  // namespace privtree::release
