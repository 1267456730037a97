// Chaos-hardening end to end: the epoll serving stack under deterministic
// injected faults (core/fault.h).  A torn spill write that "succeeded"
// before a crash must be quarantined on warm restart and never poison
// serving; mid-frame connection resets and torn frames must be absorbed by
// the client's reconnect + resend discipline with zero failed requests; a
// stuck fit must be failed by the engine watchdog instead of wedging its
// reply slot; and closed-loop clients — one, and four on their own
// threads — must survive a full server-loop restart transparently.  Every
// scenario asserts bit-for-bit parity with the in-process ReleaseSession
// oracle — chaos may slow answers down, but it must never change them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "core/sync.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/session.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/client.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/event/event_loop.h"
#include "server/protocol.h"
#include "server/socket.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {
namespace {

namespace fs = std::filesystem;

constexpr double kEpsilon = 1.0;

PointSet TestPoints(std::size_t n = 300) {
  Rng rng(0xDA7A);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < n; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble() * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

std::vector<Box> TestQueries(std::size_t n = 20) {
  Rng rng(0xBEEF);
  return GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
}

/// The in-process ground truth for one (method, seed) release.
std::vector<double> OracleAnswers(const PointSet& points,
                                  const std::string& method,
                                  std::uint64_t seed,
                                  const std::vector<Box>& queries) {
  release::ReleaseSession session(points, Box::UnitCube(2), kEpsilon, seed);
  return session.Release(method, kEpsilon)->QueryBatch(queries);
}

/// One complete epoll serving stack, restartable onto the same spill
/// directory (simulating a process restart after a crash).
struct ServingStack {
  ServingStack(const PointSet& points, const std::string& spill_dir,
               std::uint16_t port) {
    pool = std::make_unique<serve::ThreadPool>(4);
    cache = std::make_unique<serve::SynopsisCache>(
        1, serve::SpillOptions{spill_dir, 16});
    registry = std::make_unique<DatasetRegistry>(*pool, *cache);
    auto registered = registry->Register(
        "test", release::Dataset(points, Box::UnitCube(2)));
    EXPECT_TRUE(registered.ok()) << registered.status().ToString();
    dispatcher = std::make_unique<Dispatcher>(*registry);
    auto listener = ListenSocket::Listen(port);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    loop = std::make_unique<EventLoop>(*dispatcher,
                                       std::move(listener).value(),
                                       EventLoopOptions{});
    serving = std::thread([this] { EXPECT_TRUE(loop->Run().ok()); });
  }

  ~ServingStack() { Stop(); }

  void Stop() {
    if (!serving.joinable()) return;
    loop->Stop();
    serving.join();
  }

  std::uint16_t port() const { return loop->port(); }

  std::unique_ptr<serve::ThreadPool> pool;
  std::unique_ptr<serve::SynopsisCache> cache;
  std::unique_ptr<DatasetRegistry> registry;
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<EventLoop> loop;
  std::thread serving;
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::Global().Reset();
    fault::Injector::Global().SetSeed(0xC4A05);
    spill_dir_ = fs::path(::testing::TempDir()) /
                 ("privtree_chaos_" +
                  std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::remove_all(spill_dir_);
  }
  void TearDown() override {
    fault::Injector::Global().Reset();
    fs::remove_all(spill_dir_);
  }

  std::string spill_dir() const { return spill_dir_.string(); }

  fs::path spill_dir_;
};

TEST_F(ChaosTest, TornSpillWriteIsQuarantinedOnRestartAndAnswersMatchOracle) {
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};

  // Phase A: serve with a torn envelope.save — the second spill write
  // persists only half its bytes but reports success, exactly what a crash
  // between write and rename leaves under the final name.
  {
    ASSERT_TRUE(fault::Injector::Global()
                    .ArmFromSpec("envelope.save=partial:after=1:count=1")
                    .ok());
    ServingStack stack(points, spill_dir(), 0);
    auto connected = Client::Connect("127.0.0.1", stack.port());
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    Client client = std::move(connected).value();
    for (const std::uint64_t seed : seeds) {
      const FitSpec spec{"ug", {}, kEpsilon, seed};
      auto answers = client.QueryBatch(spec, queries);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    }
    stack.cache->FlushSpill();
    // The fault really fired: one of the on-disk envelopes is torn.
    EXPECT_EQ(fault::Injector::Global().StatsFor("envelope.save").fired, 1u);
  }  // "Crash": the whole stack dies; only the spill directory survives.

  // Phase B: a fresh stack on the same directory must quarantine the torn
  // file during its warm-restart scan and serve every query bit-for-bit
  // from the oracle — healthy spills rehydrated, the torn one re-fitted.
  fault::Injector::Global().Reset();
  ServingStack stack(points, spill_dir(), 0);
  EXPECT_EQ(stack.cache->stats().spill_quarantined, 1u);
  auto connected = Client::Connect("127.0.0.1", stack.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();
  for (const std::uint64_t seed : seeds) {
    const FitSpec spec{"ug", {}, kEpsilon, seed};
    auto answers = client.QueryBatch(spec, queries);
    ASSERT_TRUE(answers.ok()) << "seed " << seed << ": "
                              << answers.status().ToString();
    const std::vector<double> want = OracleAnswers(points, "ug", seed, queries);
    ASSERT_EQ(answers.value().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(answers.value()[i], want[i])
          << "seed " << seed << " query " << i << " diverged after recovery";
    }
  }
  // Zero corrupt envelopes surfaced while serving: the quarantine happened
  // at scan time, before any request could touch the torn file.
  EXPECT_EQ(stack.cache->stats().spill_failures, 0u);
}

TEST_F(ChaosTest, ResetsAndTornFramesAreAbsorbedWithZeroFailedRequests) {
  // The epoll loop does its own buffered I/O, so these socket fault points
  // fire on the client's blocking Connection — mid-frame resets and a torn
  // half-frame send, each forcing a reconnect + resend.  Every request must
  // still succeed and match the oracle.
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  ServingStack stack(points, spill_dir(), 0);

  ClientOptions options;
  options.max_attempts = 8;
  options.base_backoff_millis = 5;
  auto connected = Client::Connect("127.0.0.1", stack.port(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();

  // Hello consumed send/recv hit 0; the faults land mid-run (p=1, so the
  // schedule is exact regardless of the seed).
  ASSERT_TRUE(fault::Injector::Global()
                  .ArmFromSpec("socket.recv=reset:after=4:count=2;"
                               "socket.send=partial:after=11:count=1")
                  .ok());

  std::size_t failed = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t seed = 1 + (i % 2);
    const FitSpec spec{"ug", {}, kEpsilon, seed};
    auto answers = client.QueryBatch(spec, queries);
    if (!answers.ok()) {
      ++failed;
      ADD_FAILURE() << "request " << i << ": "
                    << answers.status().ToString();
      continue;
    }
    const std::vector<double> want = OracleAnswers(points, "ug", seed, queries);
    ASSERT_EQ(answers.value(), want) << "request " << i << " diverged";
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(fault::Injector::Global().StatsFor("socket.recv").fired, 2u);
  EXPECT_EQ(fault::Injector::Global().StatsFor("socket.send").fired, 1u);
  // Three transport faults fired, but two can land inside one call's retry
  // sequence (a reset hitting the reconnect's own Hello).  Retries count
  // actual resends only — a failed reconnect sends nothing — so both
  // telemetry fields can sit below the fault count, never above it.
  EXPECT_GE(client.telemetry().retries, 2u);
  EXPECT_LE(client.telemetry().retries, 3u);
  EXPECT_GE(client.telemetry().reconnects, 2u);
  fault::Injector::Global().Reset();  // Let teardown's Shutdown run clean.
}

TEST_F(ChaosTest, StuckFitIsFailedByTheWatchdogNotWedged) {
  const PointSet points = TestPoints();
  ServingStack stack(points, spill_dir(), 0);
  auto connected = Client::Connect("127.0.0.1", stack.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();

  // The first fit stalls 800ms inside the executor; its 100ms deadline
  // passes while it is *running*, which only the watchdog can see.
  ASSERT_TRUE(fault::Injector::Global()
                  .ArmFromSpec("engine.fit=delay:delay=800:count=1")
                  .ok());
  const FitSpec spec{"ug", {}, kEpsilon, 0xF17};
  const auto start = std::chrono::steady_clock::now();
  auto stuck = client.Fit(spec, /*deadline_millis=*/100);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_FALSE(stuck.ok());
  EXPECT_EQ(stuck.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited, 700);  // Failed by the watchdog, not by waiting it out.

  // The reply slot is not wedged: the same spec (and the same connection)
  // fits fine once the chaos clears.
  fault::Injector::Global().Reset();
  auto retried = client.Fit(spec, /*deadline_millis=*/0);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().metadata.method, "ug");
  EXPECT_GE(stack.registry->Find(0)->Stats().watchdog_fired, 1u);
}

/// The restart scenario, run by one client and by several concurrent ones.
class ChaosRestartTest : public ChaosTest,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ChaosRestartTest,
       ClosedLoopClientSurvivesServerRestartWithZeroFailures) {
  const std::size_t client_count = GetParam();
  const PointSet points = TestPoints();
  const std::vector<Box> queries = TestQueries();
  serve::ThreadPool pool(4);
  serve::SynopsisCache cache(8, serve::SpillOptions{spill_dir(), 16});
  DatasetRegistry registry(pool, cache);
  ASSERT_TRUE(
      registry.Register("test", release::Dataset(points, Box::UnitCube(2)))
          .ok());
  Dispatcher dispatcher(registry);

  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  auto loop = std::make_unique<EventLoop>(dispatcher,
                                          std::move(listener).value(),
                                          EventLoopOptions{});
  std::thread serving([&loop] { EXPECT_TRUE(loop->Run().ok()); });

  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::vector<std::vector<double>> oracle;
  for (const std::uint64_t seed : seeds) {
    oracle.push_back(OracleAnswers(points, "ug", seed, queries));
  }

  // Every client runs 15 requests, waits at the barrier while the serving
  // loop restarts under its (now dead) connection, then runs 15 more, which
  // forces each one through reconnect + resend.
  constexpr int kRequestsPerPhase = 15;
  Mutex mu;
  CondVar cv;
  std::size_t at_barrier = 0;
  bool restarted = false;
  std::atomic<std::size_t> failed{0};
  std::vector<std::uint64_t> reconnects(client_count, 0);
  const auto run_client = [&](std::size_t index) {
    ClientOptions options;
    options.max_attempts = 10;
    options.base_backoff_millis = 20;
    options.backoff_seed = 0xC4A05 + index;
    auto connected = Client::Connect("127.0.0.1", port, options);
    const bool ok = connected.ok();
    EXPECT_TRUE(ok) << connected.status().ToString();
    for (int i = 0; i < 2 * kRequestsPerPhase; ++i) {
      if (i == kRequestsPerPhase) {
        MutexLock lock(mu);
        ++at_barrier;
        cv.NotifyAll();
        while (!restarted) cv.Wait(lock);
      }
      if (!ok) continue;
      const std::size_t s = (i + index) % seeds.size();
      const FitSpec spec{"ug", {}, kEpsilon, seeds[s]};
      auto answers = connected.value().QueryBatch(spec, queries);
      if (!answers.ok()) {
        ++failed;
        ADD_FAILURE() << "client " << index << " request " << i << ": "
                      << answers.status().ToString();
        continue;
      }
      EXPECT_EQ(answers.value(), oracle[s])
          << "client " << index << " request " << i
          << " diverged across the restart";
    }
    if (ok) reconnects[index] = connected.value().telemetry().reconnects;
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < client_count; ++c) {
    clients.emplace_back(run_client, c);
  }

  {
    MutexLock lock(mu);
    while (at_barrier < client_count) cv.Wait(lock);
  }
  // Restart the serving loop on the same port while every client holds a
  // live connection; the registry, cache, and dispatcher survive (a
  // front-end bounce, the common deployment restart).
  loop->Stop();
  serving.join();
  auto relisten = ListenSocket::Listen(port);
  EXPECT_TRUE(relisten.ok()) << relisten.status().ToString();
  if (relisten.ok()) {
    loop = std::make_unique<EventLoop>(dispatcher,
                                       std::move(relisten).value(),
                                       EventLoopOptions{});
    serving = std::thread([&loop] { EXPECT_TRUE(loop->Run().ok()); });
  }
  {
    MutexLock lock(mu);
    restarted = true;
  }
  cv.NotifyAll();
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failed.load(), 0u);
  for (std::size_t c = 0; c < client_count; ++c) {
    EXPECT_GE(reconnects[c], 1u) << "client " << c;
  }
  if (serving.joinable()) {
    loop->Stop();
    serving.join();
  }
}

INSTANTIATE_TEST_SUITE_P(Clients, ChaosRestartTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace privtree::server
