// Per-connection ε accounting: a key is charged once, requests on it may
// overlap, and the charge is refunded only when every request holding it
// failed — a failed request must never refund ε that a concurrent request
// on the same key already spent on delivered answers.  The unit tests pin
// the ClientSession bookkeeping in every settle order; the Dispatcher test
// replays the served shape of the race (a pipelined repeat that delivers
// while the charging frame expires in the queue).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "release/dataset.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/client_session.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {
namespace {

constexpr double kEpsilon = 1.0;
constexpr std::uint64_t kSeed = 0xC11;

serve::SynopsisKey Key(std::uint64_t rng_fingerprint) {
  return {7, "ug", "", kEpsilon, rng_fingerprint};
}

TEST(ClientSessionTest, RepeatsOfAPaidKeyAreFree) {
  ClientSession session(1.0);
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  session.Settle(Key(1), kEpsilon, /*delivered=*/true);
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  session.Settle(Key(1), kEpsilon, /*delivered=*/true);
  EXPECT_EQ(session.spent(), kEpsilon);
  const Status broke = session.Charge(Key(2), kEpsilon);
  EXPECT_EQ(broke.code(), StatusCode::kOutOfRange);
}

TEST(ClientSessionTest, FailedHolderSettlingFirstKeepsADeliveredCharge) {
  ClientSession session(1.0);
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());  // Pays.
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());  // Rides along.
  session.Settle(Key(1), kEpsilon, /*delivered=*/false);
  EXPECT_EQ(session.spent(), kEpsilon) << "refunded while a holder ran";
  session.Settle(Key(1), kEpsilon, /*delivered=*/true);
  EXPECT_EQ(session.spent(), kEpsilon);
  EXPECT_EQ(session.Charge(Key(2), kEpsilon).code(), StatusCode::kOutOfRange);
}

TEST(ClientSessionTest, FailedHolderSettlingLastKeepsADeliveredCharge) {
  ClientSession session(1.0);
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  session.Settle(Key(1), kEpsilon, /*delivered=*/true);
  session.Settle(Key(1), kEpsilon, /*delivered=*/false);
  EXPECT_EQ(session.spent(), kEpsilon);
  EXPECT_EQ(session.Charge(Key(2), kEpsilon).code(), StatusCode::kOutOfRange);
}

TEST(ClientSessionTest, ChargeIsRefundedWhenEveryHolderFails) {
  ClientSession session(1.0);
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  session.Settle(Key(1), kEpsilon, /*delivered=*/false);
  EXPECT_EQ(session.spent(), kEpsilon);  // One holder still in flight.
  session.Settle(Key(1), kEpsilon, /*delivered=*/false);
  EXPECT_EQ(session.spent(), 0.0);
  // The refunded budget is spendable on another release.
  ASSERT_TRUE(session.Charge(Key(2), kEpsilon).ok());
  EXPECT_EQ(session.spent(), kEpsilon);
}

TEST(ClientSessionTest, RefundedKeyIsChargedAgainAndThenStaysPaid) {
  ClientSession session(0.0);  // Unlimited.
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  session.Settle(Key(1), kEpsilon, /*delivered=*/false);
  EXPECT_EQ(session.spent(), 0.0);
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  EXPECT_EQ(session.spent(), kEpsilon);
  session.Settle(Key(1), kEpsilon, /*delivered=*/true);
  // Once delivered, a later failing request on the key refunds nothing.
  ASSERT_TRUE(session.Charge(Key(1), kEpsilon).ok());
  session.Settle(Key(1), kEpsilon, /*delivered=*/false);
  EXPECT_EQ(session.spent(), kEpsilon);
}

PointSet TestPoints() {
  Rng rng(0xDA7A);
  PointSet points(2);
  std::vector<double> p(2);
  for (std::size_t i = 0; i < 300; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble() * rng.NextDouble();
    points.Add(p);
  }
  return points;
}

TEST(DispatcherBudgetTest, ExpiredPayerKeepsTheChargeOfADeliveredRepeat) {
  const PointSet points = TestPoints();
  serve::ThreadPool pool(1);
  serve::SynopsisCache cache(8);
  DatasetRegistry registry(pool, cache);
  ASSERT_TRUE(
      registry.Register("test", release::Dataset(points, Box::UnitCube(2)))
          .ok());
  DispatcherOptions options;
  options.session_budget = kEpsilon;
  Dispatcher dispatcher(registry, options);
  const std::shared_ptr<ClientSession> session = dispatcher.NewSession();

  // Hold the only worker so both frames wait in the engine queue.
  std::latch started(1);
  std::latch unblock(1);
  pool.Submit([&] {
    started.count_down();
    unblock.wait();
  });
  started.wait();

  Rng query_rng(0xBEEF);
  const std::vector<Box> queries =
      GenerateRangeQueries(Box::UnitCube(2), 10, kMediumQueries, query_rng);
  const FitSpec spec{"ug", {}, kEpsilon, kSeed};
  std::string expiring_reply;
  std::string delivered_reply;
  bool shutdown = false;
  // The first frame pays the key's ε and expires while queued; the
  // pipelined repeat rides that charge for free and delivers answers.
  dispatcher.HandleFrame(
      EncodeQueryBatch({spec, /*deadline_millis=*/1, 0, queries}), session,
      &shutdown,
      [&](std::string reply) { expiring_reply = std::move(reply); });
  dispatcher.HandleFrame(
      EncodeQueryBatch({spec, /*deadline_millis=*/0, 0, queries}), session,
      &shutdown,
      [&](std::string reply) { delivered_reply = std::move(reply); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  unblock.count_down();
  pool.WaitIdle();

  Status expired;
  ASSERT_TRUE(DecodeErrorReply(expiring_reply, &expired).ok());
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  QueryBatchReply answers;
  ASSERT_TRUE(DecodeQueryBatchReply(delivered_reply, &answers).ok());
  EXPECT_EQ(answers.answers.size(), queries.size());

  // Answers left the server, so the ε stays spent...
  EXPECT_EQ(session->spent(), kEpsilon);
  // ...and a second release would overdraw the 1ε budget.
  std::string refused_reply;
  dispatcher.HandleFrame(
      EncodeQueryBatch({{"ug", {}, kEpsilon, kSeed + 1}, 0, 0, queries}),
      session, &shutdown,
      [&](std::string reply) { refused_reply = std::move(reply); });
  pool.WaitIdle();
  Status refused;
  ASSERT_TRUE(DecodeErrorReply(refused_reply, &refused).ok())
      << "a second ε=1 release was served against a 1ε budget";
  EXPECT_EQ(refused.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace privtree::server
