// Concurrent fits on one engine share its dataset's fit index: several
// client threads fit privtree (and, on a sequence tenant, pst_privtree)
// with distinct seeds at once, the index is built exactly once — the
// `dataset.index_bytes` gauge holds one index — and every synopsis the
// engine caches equals a sequential ReleaseSession's, byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dp/rng.h"
#include "dp/status.h"
#include "obs/metrics.h"
#include "release/dataset.h"
#include "release/options.h"
#include "release/session.h"
#include "seq/pst_occurrences.h"
#include "seq/sequence.h"
#include "serve/parallel_runner.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/async_engine.h"
#include "spatial/box.h"
#include "spatial/morton_index.h"
#include "spatial/point_set.h"

namespace privtree::server {
namespace {

constexpr double kEpsilon = 1.0;
constexpr int kThreads = 4;
constexpr int kFitsPerThread = 3;

std::uint64_t IndexBytes() {
  return obs::Registry::Global().GetGauge("dataset.index_bytes").Value();
}

PointSet TestPoints() {
  Rng rng(0x5A7);
  PointSet points(2);
  std::vector<double> p(2);
  for (int i = 0; i < 3000; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble() * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

SequenceDataset TestSequences() {
  Rng rng(0x5E9);
  SequenceDataset data(5);
  std::vector<Symbol> s;
  for (int i = 0; i < 600; ++i) {
    s.clear();
    const std::size_t len = 1 + rng.NextBounded(25);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(5)));
    }
    data.Add(s, /*has_end=*/rng.NextDouble() < 0.8);
  }
  return data;
}

std::string Saved(const release::Method& method) {
  std::ostringstream out;
  EXPECT_TRUE(method.Save(out).ok());
  return out.str();
}

/// Fits `method` with seeds 1..kThreads·kFitsPerThread from kThreads
/// client threads at once, then checks every cached synopsis against a
/// sequential session over a Dataset of its own.
void FitConcurrentlyAndCompare(const release::Dataset& data,
                               const std::string& method,
                               const release::MethodOptions& options) {
  serve::ThreadPool pool(kThreads);
  serve::SynopsisCache cache(64);
  AsyncEngine engine(data, pool, cache);

  std::vector<std::thread> clients;
  std::vector<Status> statuses(kThreads * kFitsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<Future<FitResponse>> futures;
      for (int i = 0; i < kFitsPerThread; ++i) {
        const std::uint64_t seed = 1 + t * kFitsPerThread + i;
        futures.push_back(
            engine.SubmitFit({method, options, kEpsilon, seed}));
      }
      for (int i = 0; i < kFitsPerThread; ++i) {
        statuses[t * kFitsPerThread + i] = futures[i].Get().status;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  for (std::uint64_t seed = 1; seed <= kThreads * kFitsPerThread; ++seed) {
    // The engine's fit of this seed, read back from the cache.
    Rng session_rng(seed);
    const serve::FitJob job{method, options, kEpsilon, session_rng.Fork()};
    const serve::FitResult cached = serve::FitSynopsis(
        engine.data(), engine.dataset_fingerprint(), job, &cache);
    ASSERT_TRUE(cached.cache_hit) << method << " seed " << seed;

    const release::Dataset fresh = data.is_spatial()
                                       ? release::Dataset(data.points(),
                                                          data.domain())
                                       : release::Dataset(data.sequences());
    release::ReleaseSession session(fresh, kEpsilon, seed);
    EXPECT_EQ(Saved(*cached.method),
              Saved(*session.ReleaseRemaining(method, options)))
        << method << " seed " << seed;
  }
}

TEST(SharedFitIndexTest, ConcurrentPrivTreeFitsBuildOneMortonIndex) {
  const PointSet points = TestPoints();
  const std::uint64_t before = IndexBytes();
  const release::Dataset data(points, Box::UnitCube(2));
  FitConcurrentlyAndCompare(data, "privtree", {});
  EXPECT_EQ(IndexBytes() - before, 16u * points.size());
  EXPECT_EQ(IndexBytes() - before, data.morton_index().MemoryBytes());
}

TEST(SharedFitIndexTest, ConcurrentPstFitsBuildOneLayout) {
  const SequenceDataset sequences = TestSequences();
  release::MethodOptions options;
  options.Set("l_top", "12");
  const std::uint64_t before = IndexBytes();
  const release::Dataset data(sequences);
  FitConcurrentlyAndCompare(data, "pst_privtree", options);
  EXPECT_EQ(IndexBytes() - before,
            PstOccurrences(sequences, 12).MemoryBytes());
}

}  // namespace
}  // namespace privtree::server
