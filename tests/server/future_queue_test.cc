// The serving primitives under the engine: Promise/Future completion
// handles (cross-thread set/get, timed waits, abandonment) and the bounded
// RequestQueue (FIFO order, depth cap, deadline plumbing).  Queue depth is
// read from the process-wide engine.queue_depth gauge, relative to its
// value before the queue under test was made.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dp/status.h"
#include "obs/metrics.h"
#include "server/future.h"
#include "server/request.h"
#include "server/request_queue.h"

namespace privtree::server {
namespace {

/// The requests waiting in every live RequestQueue.
std::uint64_t QueueDepth() {
  return obs::Registry::Global().GetGauge("engine.queue_depth").Value();
}

/// A minimal response-like payload for the Future tests.
struct TestValue {
  Status status;
  int payload = 0;

  static TestValue Abandoned() {
    return {Status::Internal("request abandoned by its executor"), 0};
  }
};

TEST(FutureTest, DeliversValueAcrossThreads) {
  Promise<TestValue> promise;
  Future<TestValue> future = promise.future();
  EXPECT_FALSE(future.Ready());

  std::thread setter([p = std::move(promise)]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    p.Set({Status::OK(), 42});
  });
  const TestValue value = future.Get();
  EXPECT_TRUE(value.status.ok());
  EXPECT_EQ(value.payload, 42);
  EXPECT_TRUE(future.Ready());
  setter.join();
}

TEST(FutureTest, CopiedFuturesShareOneValue) {
  Promise<TestValue> promise;
  Future<TestValue> a = promise.future();
  Future<TestValue> b = a;
  promise.Set({Status::OK(), 7});
  EXPECT_EQ(a.Get().payload, 7);
  EXPECT_EQ(b.Get().payload, 7);  // Both handles see the one resolution.
}

TEST(FutureTest, WaitForTimesOutThenSucceeds) {
  Promise<TestValue> promise;
  Future<TestValue> future = promise.future();
  EXPECT_FALSE(future.WaitFor(std::chrono::milliseconds(5)));
  promise.Set({Status::OK(), 1});
  EXPECT_TRUE(future.WaitFor(std::chrono::milliseconds(5)));
}

TEST(FutureTest, DroppedPromiseResolvesWithInternalError) {
  std::optional<Future<TestValue>> future;
  {
    Promise<TestValue> promise;
    future = promise.future();
  }  // Executor died without answering.
  EXPECT_TRUE(future->Ready());
  EXPECT_EQ(future->Get().status.code(), StatusCode::kInternal);
}

TEST(RequestQueueTest, FifoOrderAndDepth) {
  const std::uint64_t before = QueueDepth();
  RequestQueue queue(4);
  std::vector<int> ran;
  for (int i = 0; i < 3; ++i) {
    QueuedRequest request;
    request.run = [&ran, i] { ran.push_back(i); };
    request.expire = [](Status) {};
    EXPECT_TRUE(queue.TryPush(request));
  }
  EXPECT_EQ(QueueDepth() - before, 3u);
  QueuedRequest popped;
  while (queue.TryPop(&popped)) popped.run();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(QueueDepth(), before);
}

TEST(RequestQueueTest, RefusesBeyondMaxDepth) {
  const std::uint64_t before = QueueDepth();
  RequestQueue queue(2);
  QueuedRequest request;
  request.run = [] {};
  request.expire = [](Status) {};
  EXPECT_TRUE(queue.TryPush(request));
  request.run = [] {};
  request.expire = [](Status) {};
  EXPECT_TRUE(queue.TryPush(request));

  bool run_survived = false;
  QueuedRequest refused;
  refused.run = [&run_survived] { run_survived = true; };
  refused.expire = [](Status) {};
  EXPECT_FALSE(queue.TryPush(refused));
  // A refused request is left intact for the caller to resolve.
  ASSERT_NE(refused.run, nullptr);
  refused.run();
  EXPECT_TRUE(run_survived);

  QueuedRequest popped;
  EXPECT_TRUE(queue.TryPop(&popped));
  EXPECT_EQ(QueueDepth() - before, 1u);
}

TEST(RequestQueueTest, ZeroDepthClampsToOne) {
  RequestQueue queue(0);
  EXPECT_EQ(queue.max_depth(), 1u);
}

TEST(RequestQueueTest, CarriesDeadlines) {
  RequestQueue queue(1);
  const auto deadline =
      DeadlineClock::now() + std::chrono::milliseconds(1234);
  QueuedRequest request;
  request.deadline = deadline;
  request.run = [] {};
  request.expire = [](Status) {};
  ASSERT_TRUE(queue.TryPush(request));
  QueuedRequest popped;
  ASSERT_TRUE(queue.TryPop(&popped));
  EXPECT_EQ(popped.deadline, deadline);
}

TEST(DeadlineTest, MillisConversion) {
  EXPECT_EQ(DeadlineFromMillis(0), kNoDeadline);
  EXPECT_EQ(DeadlineFromMillis(-5), kNoDeadline);
  const auto before = DeadlineClock::now();
  const auto deadline = DeadlineFromMillis(250);
  EXPECT_GE(deadline, before + std::chrono::milliseconds(250));
  EXPECT_LT(deadline, before + std::chrono::seconds(10));
  // A wire-supplied huge deadline must mean "no deadline", not overflow
  // the clock arithmetic into an instantly-expired time point.
  EXPECT_EQ(DeadlineFromMillis(std::numeric_limits<std::int64_t>::max()),
            kNoDeadline);
}

}  // namespace
}  // namespace privtree::server
