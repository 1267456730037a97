// Cross-version envelope compatibility.  v3 compressed the per-backend
// payloads; spill directories written by the previous release are v2, and
// the contract is that they load forever, bit for bit.  These tests craft
// genuine v2 envelopes — same header layout, same raw payloads the old
// writers produced — by transcoding a fresh v3 save through the public
// codecs, then pin:
//
//  * v2 loads answer queries bitwise-identically to the v3 round-trip;
//  * re-saving a v2-loaded synopsis upgrades it to byte-identical v3
//    (so a warm restart transparently migrates old spill files);
//  * the compressed tree-family envelopes are at least 2× smaller than
//    their v2 form (the perf_opt acceptance bar);
//  * the opt-in `count_quantum` knob round-trips bitwise and shrinks the
//    envelope further;
//  * a *valid-checksum* envelope wrapping a corrupted compressed payload —
//    the adversarial case the body checksum cannot catch — fails cleanly
//    or loads something re-saveable, never crashes (swept under ASan in
//    CI's hardening job).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/byteio.h"
#include "core/codec.h"
#include "core/tree.h"
#include "dp/budget.h"
#include "dp/rng.h"
#include "eval/workload.h"
#include "hist/ag.h"
#include "hist/grid_codec.h"
#include "release/registry.h"
#include "release/sequence_query.h"
#include "release/serialization.h"
#include "release/session.h"
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

std::unique_ptr<Method> FitSpatial(const std::string& name,
                                   const MethodOptions& options,
                                   const PointSet& points,
                                   std::uint64_t seed) {
  auto method = GlobalMethodRegistry().Create(name, options);
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

/// Re-encodes a v3 compressed payload into the raw v2 payload the previous
/// release wrote, through the public codecs (so the bytes are exactly what
/// an old spill file holds).
std::string TranscodePayloadToV2(const ParsedEnvelope& env) {
  const std::string& name = env.metadata.method;
  ByteReader in(env.payload);
  std::string v2;
  ByteWriter out(&v2);
  if (name == "privtree" || name == "simpletree") {
    DecompTree<SpatialCell> tree;
    std::vector<double> counts;
    EXPECT_TRUE(ReadSpatialTreeBodyCompressed(in, env.metadata.dim, &tree,
                                              &counts)
                    .ok());
    WriteSpatialTreeBody(out, tree, counts);
  } else if (name == "kdtree") {
    DecompTree<Box> tree;
    std::vector<double> counts;
    EXPECT_TRUE(
        ReadBoxTreeBodyCompressed(in, env.metadata.dim, &tree, &counts).ok());
    WriteBoxTreeBody(out, tree, counts);
  } else if (name == "ag") {
    auto grid = ReadAdaptiveGridBodyCompressed(in);
    EXPECT_TRUE(grid.ok()) << grid.status().ToString();
    const std::int64_t m1 = grid.value().level1_granularity();
    out.I64(m1);
    WriteBox(out, grid.value().domain());
    out.F64Span(grid.value().level1_counts());
    for (const GridHistogram& sub : grid.value().level2()) {
      WriteGridHistogram(out, sub);
    }
  } else if (name == "pst_privtree" || name == "ngram") {
    std::uint64_t n = 0;
    std::string packed;
    std::vector<NodeId> parents;
    EXPECT_TRUE(in.U64(&n));
    EXPECT_TRUE(in.Str(&packed));
    EXPECT_TRUE(UnpackDeltaI32(packed, n, &parents));
    out.U64(n);
    if (name == "pst_privtree") {
      const std::size_t beta = env.metadata.dim + 1;  // dim = alphabet size.
      for (std::uint64_t i = 0; i < n; ++i) {
        std::vector<double> hist;
        EXPECT_TRUE(in.F64Vec(beta, &hist));
        out.I32(parents[i]);
        out.F64Span(hist);
      }
    } else {
      std::vector<double> counts;
      EXPECT_TRUE(in.F64Vec(n, &counts));
      for (std::uint64_t i = 0; i < n; ++i) {
        out.I32(parents[i]);
        out.F64(counts[i]);
      }
    }
  } else {
    ADD_FAILURE() << "no v2 transcoder for " << name;
  }
  EXPECT_TRUE(in.AtEnd()) << name << " payload not fully consumed";
  return v2;
}

std::string CraftV2Envelope(const ParsedEnvelope& env,
                            const std::string& v2_payload) {
  std::ostringstream out;
  EXPECT_TRUE(WriteSynopsis(out, env.metadata, env.options_text, v2_payload,
                            kSynopsisFormatVersionV2)
                  .ok());
  return std::move(out).str();
}

TEST(EnvelopeCompatTest, V2SpatialEnvelopesLoadBitForBitAndUpgradeOnSave) {
  const PointSet points = TestPoints();
  Rng query_rng(0xBEEF);
  const std::vector<Box> queries = GenerateRangeQueries(
      Box::UnitCube(2), 60, kMediumQueries, query_rng);

  struct Case {
    std::string name;
    MethodOptions options;
  };
  const std::vector<Case> cases = {
      {"privtree", {}},
      {"simpletree", {{"height", "5"}}},
      {"kdtree", {{"height", "6"}}},
      {"ag", {}},
  };
  std::uint64_t seed = 31;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto fitted = FitSpatial(c.name, c.options, points, seed++);
    const std::string v3_bytes = SaveToString(*fitted);
    const ParsedEnvelope env = ParseV3(v3_bytes);
    const std::string v2_bytes = CraftV2Envelope(env, TranscodePayloadToV2(env));

    auto loaded = LoadFromString(v2_bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    const MethodMetadata want = fitted->Metadata();
    const MethodMetadata got = loaded.value()->Metadata();
    EXPECT_EQ(got.method, want.method);
    EXPECT_EQ(got.epsilon_spent, want.epsilon_spent);
    EXPECT_EQ(got.synopsis_size, want.synopsis_size);
    EXPECT_EQ(got.height, want.height);

    const std::vector<double> want_batch = fitted->QueryBatch(queries);
    const std::vector<double> got_batch = loaded.value()->QueryBatch(queries);
    ASSERT_EQ(got_batch.size(), want_batch.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got_batch[i], want_batch[i]) << "query " << i;
    }
    EXPECT_EQ(loaded.value()->Query(queries.front()),
              fitted->Query(queries.front()));

    // Re-saving the v2 load writes the v3 envelope byte-for-byte: an old
    // spill file migrates to the compressed format with nothing lost.
    EXPECT_EQ(SaveToString(*loaded.value()), v3_bytes);
  }
}

TEST(EnvelopeCompatTest, V2SequenceEnvelopesLoadBitForBitAndUpgradeOnSave) {
  Rng rng(0x5EC7E57);
  SequenceDataset data(4);
  std::vector<Symbol> s;
  for (std::size_t i = 0; i < 400; ++i) {
    s.clear();
    const std::size_t len = 1 + rng.NextBounded(14);
    Symbol last = static_cast<Symbol>(rng.NextBounded(4));
    for (std::size_t j = 0; j < len; ++j) {
      last = static_cast<Symbol>(rng.NextDouble() < 0.6 ? last
                                                        : rng.NextBounded(4));
      s.push_back(last);
    }
    data.Add(s);
  }
  const SequenceDataset sequences = data.Truncate(12);
  MethodOptions options;
  options.Set("l_top", "12");

  std::vector<SequenceQuery> queries;
  queries.push_back(SequenceQuery::Frequency({0}));
  queries.push_back(SequenceQuery::Frequency({1, 2}));
  queries.push_back(SequenceQuery::PrefixCount({0, 1}));
  queries.push_back(SequenceQuery::TopK(5, 3));

  for (const char* name : {"pst_privtree", "ngram"}) {
    SCOPED_TRACE(name);
    ReleaseSession session(sequences, 1.0, 0xC0FFEE);
    const auto fitted = session.ReleaseRemaining(name, options);
    const std::string v3_bytes = SaveToString(*fitted);
    const ParsedEnvelope env = ParseV3(v3_bytes);
    const std::string v2_bytes = CraftV2Envelope(env, TranscodePayloadToV2(env));

    auto loaded = LoadFromString(v2_bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::vector<double> want = fitted->QueryBatch(std::span(queries));
    const std::vector<double> got =
        loaded.value()->QueryBatch(std::span(queries));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "query " << i;
    }
    EXPECT_EQ(SaveToString(*loaded.value()), v3_bytes);
  }
}

TEST(EnvelopeCompatTest, CompressedTreeEnvelopesAreAtLeastHalfTheSize) {
  // The perf_opt acceptance bar: v3 tree-family envelopes at ≤ half their
  // v2 size; this test is the gate that holds it.
  const PointSet points = TestPoints();
  std::uint64_t seed = 47;
  for (const char* name : {"privtree", "simpletree", "kdtree"}) {
    SCOPED_TRACE(name);
    MethodOptions options;
    if (std::string(name) != "privtree") options.Set("height", "6");
    const auto fitted = FitSpatial(name, options, points, seed++);
    const std::string v3_bytes = SaveToString(*fitted);
    const ParsedEnvelope env = ParseV3(v3_bytes);
    const std::string v2_bytes = CraftV2Envelope(env, TranscodePayloadToV2(env));
    EXPECT_LE(v3_bytes.size() * 2, v2_bytes.size())
        << "v3=" << v3_bytes.size() << " v2=" << v2_bytes.size();
  }
  // AG's payload is dominated by incompressible noisy doubles; the codec
  // still strictly shrinks it (dropped boxes, packed granularities).
  const auto ag = FitSpatial("ag", {}, points, seed);
  const std::string ag_v3 = SaveToString(*ag);
  const ParsedEnvelope ag_env = ParseV3(ag_v3);
  EXPECT_LT(ag_v3.size(),
            CraftV2Envelope(ag_env, TranscodePayloadToV2(ag_env)).size());
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

class CompressedPayloadCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const PointSet points = TestPoints(1500);
    envelopes_.push_back(SaveToString(*FitSpatial("privtree", {}, points, 7)));
    envelopes_.push_back(SaveToString(*FitSpatial("ag", {}, points, 7)));

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
