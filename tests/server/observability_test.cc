// The observability surface over a live socket: protocol-v4 clients still
// handshake and round-trip bit-for-bit, a kTraced wrapper never changes a
// single reply byte, GetStats returns a JSON snapshot whose counters match
// the traffic that was actually served, the engine.queue_depth gauge
// follows the request queues back to 0, the dataset.index_bytes gauge
// holds a tenant's Morton index (16 bytes per point) once a tree fit has
// built it, and the trace ring records one
// finished trace per request with the spans a query pipeline must have.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "release/dataset.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/client.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/event/event_loop.h"
#include "server/protocol.h"
#include "server/request_queue.h"
#include "server/socket.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {
namespace {

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

std::vector<Box> TestQueries(std::size_t n = 25) {
  Rng rng(0xBEEF);
  return GenerateRangeQueries(Box::UnitCube(2), n, kMediumQueries, rng);
}

/// One epoll serving stack on an ephemeral port, torn down in order.
class ObservabilityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().Reset();
    obs::TraceRing::Global().Reset();
    points_ = std::make_unique<PointSet>(TestPoints());
    pool_ = std::make_unique<serve::ThreadPool>(4);
    cache_ = std::make_unique<serve::SynopsisCache>(32);
    registry_ = std::make_unique<DatasetRegistry>(*pool_, *cache_);
    auto registered = registry_->Register(
        "test", release::Dataset(*points_, Box::UnitCube(2)));
    ASSERT_TRUE(registered.ok()) << registered.status().ToString();
    dispatcher_ = std::make_unique<Dispatcher>(*registry_);
    auto listener = ListenSocket::Listen(0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    loop_ = std::make_unique<EventLoop>(*dispatcher_,
                                        std::move(listener).value());
    port_ = loop_->port();
    serving_ = std::thread([this] { run_status_ = loop_->Run(); });
  }

  void TearDown() override {
    loop_->Stop();
    serving_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  /// Raw frame round trip on `conn` (no Client-layer retry logic).
  std::string RoundTripRaw(Connection& conn, const std::string& payload) {
    EXPECT_TRUE(conn.SendFrame(payload).ok());
    auto reply = conn.RecvFrame();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? std::move(reply).value() : std::string();
  }

  std::unique_ptr<PointSet> points_;
  std::unique_ptr<serve::ThreadPool> pool_;
  std::unique_ptr<serve::SynopsisCache> cache_;
  std::unique_ptr<DatasetRegistry> registry_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<EventLoop> loop_;
  std::uint16_t port_ = 0;
  std::thread serving_;
  Status run_status_ = Status::OK();
};

TEST_F(ObservabilityFixture, ProtocolV4ClientStillRoundTripsBitForBit) {
  // A v4 client sends Hello{version=4} and expects the echo to say 4 —
  // exactly what pre-v5 DialAndHello hard-checks.  The server must
  // negotiate down and serve its QueryBatch unchanged.
  auto dialed = Connection::Dial("127.0.0.1", port_, 2000);
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  Connection conn = std::move(dialed).value();
  HelloRequest hello;
  hello.version = 4;
  const std::string hello_reply = RoundTripRaw(conn, EncodeHello(hello));
  HelloReply info;
  ASSERT_TRUE(DecodeHelloReply(hello_reply, &info).ok());
  EXPECT_EQ(info.version, 4u);

  QueryBatchRequest request;
  request.spec = FitSpec{"ug", {}, kEpsilon, 0xC11};
  request.queries = TestQueries();
  const std::string v4_reply =
      RoundTripRaw(conn, EncodeQueryBatch(request));
  ASSERT_EQ(PeekType(v4_reply).value(), MessageType::kQueryBatchReply);

  // The same request through a current Client answers with the same
  // bytes — the protocol bump changed nothing the old client can see.
  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto answers =
      client.value().QueryBatch(request.spec, request.queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  QueryBatchReply decoded;
  ASSERT_TRUE(DecodeQueryBatchReply(v4_reply, &decoded).ok());
  EXPECT_EQ(decoded.answers, answers.value());
}

TEST_F(ObservabilityFixture, UnsupportedHelloVersionIsRefusedCleanly) {
  auto dialed = Connection::Dial("127.0.0.1", port_, 2000);
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  Connection conn = std::move(dialed).value();
  HelloRequest hello;
  hello.version = 3;  // Below kMinProtocolVersion.
  const std::string reply = RoundTripRaw(conn, EncodeHello(hello));
  ASSERT_EQ(PeekType(reply).value(), MessageType::kErrorReply);
  Status carried;
  ASSERT_TRUE(DecodeErrorReply(reply, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
}

TEST_F(ObservabilityFixture, TracedWrapperNeverChangesReplyBytes) {
  auto dialed = Connection::Dial("127.0.0.1", port_, 2000);
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  Connection conn = std::move(dialed).value();
  RoundTripRaw(conn, EncodeHello(HelloRequest{}));

  QueryBatchRequest request;
  request.spec = FitSpec{"ug", {}, kEpsilon, 0xC11};
  request.queries = TestQueries();
  const std::string payload = EncodeQueryBatch(request);
  // Warm the synopsis cache first: the reply carries a cache-hit flag, so
  // the comparison below must pit hit against hit, not miss against hit.
  RoundTripRaw(conn, payload);
  const std::string plain = RoundTripRaw(conn, payload);
  const std::string traced =
      RoundTripRaw(conn, EncodeTraced(0xFACE, payload));
  EXPECT_EQ(plain, traced);  // Bit-for-bit, not just equal answers.

  // The client-side wrapper is the same machinery.
  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  client.value().EnableTraceIds(0x1000);
  auto answers =
      client.value().QueryBatch(request.spec, request.queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  QueryBatchReply decoded;
  ASSERT_TRUE(DecodeQueryBatchReply(plain, &decoded).ok());
  EXPECT_EQ(answers.value(), decoded.answers);
}

TEST_F(ObservabilityFixture, GetStatsCountsMatchServedTraffic) {
  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const FitSpec spec{"ug", {}, kEpsilon, 0xC11};
  const std::vector<Box> queries = TestQueries();
  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    auto answers = client.value().QueryBatch(spec, queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  }

  auto json = client.value().GetStatsJson();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  // Counter values must agree with the closed-loop accounting: one Hello
  // + kRequests QueryBatches served so far, the GetStats frame itself not
  // yet finished when the snapshot was taken.  Frames served is at least
  // the requests; admission admitted exactly kRequests (Hello and
  // GetStats never pass admission).
  const std::string& s = json.value();
  EXPECT_NE(s.find("\"admission.admitted\":" + std::to_string(kRequests)),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("\"event.accepted\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"engine.queue_wait_us\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"engine.kernel_us\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"server.request_us\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"traces\":{"), std::string::npos) << s;
  EXPECT_NE(s.find("\"faults\":{"), std::string::npos) << s;
  // The registry agrees with the engine's own struct-based accounting.
  const auto engine_stats =
      registry_->Find(registry_->default_fingerprint())->Stats();
  EXPECT_EQ(engine_stats.admission.admitted,
            static_cast<std::size_t>(kRequests));
  EXPECT_EQ(obs::Registry::Global()
                .GetCounter("admission.admitted")
                .Value(),
            static_cast<std::uint64_t>(kRequests));
}

TEST_F(ObservabilityFixture, QueueDepthGaugeFollowsTheQueueAndDrainsToZero) {
  obs::Gauge& depth =
      obs::Registry::Global().GetGauge("engine.queue_depth");
  {
    // A queue of its own: each push raises the process-wide gauge, each
    // pop lowers it, and a queue destroyed while holding requests takes
    // them out of the count.
    RequestQueue queue(4);
    QueuedRequest request;
    ASSERT_TRUE(queue.TryPush(request));
    QueuedRequest other;
    ASSERT_TRUE(queue.TryPush(other));
    EXPECT_EQ(depth.Value(), 2u);
    QueuedRequest popped;
    ASSERT_TRUE(queue.TryPop(&popped));
    EXPECT_EQ(depth.Value(), 1u);
  }
  EXPECT_EQ(depth.Value(), 0u);

  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ASSERT_TRUE(client.value()
                    .QueryBatch({"ug", {}, kEpsilon, seed}, TestQueries())
                    .ok());
  }
  pool_->WaitIdle();
  EXPECT_NE(obs::ProcessStatsJson().find("\"engine.queue_depth\":0"),
            std::string::npos);
  auto json = client.value().GetStatsJson();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json.value().find("\"engine.queue_depth\":0"), std::string::npos)
      << json.value();
}

TEST_F(ObservabilityFixture, IndexBytesGaugeHoldsTheTenantsMortonIndex) {
  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Before any tree fit the tenant holds no index; the first privtree fit
  // builds it, and a second fit with another seed reuses it.
  ASSERT_TRUE(client.value().Fit({"ug", {}, kEpsilon, 1}).ok());
  auto json = client.value().GetStatsJson();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json.value().find("\"dataset.index_bytes\":0"), std::string::npos)
      << json.value();
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    ASSERT_TRUE(client.value().Fit({"privtree", {}, kEpsilon, seed}).ok());
  }
  json = client.value().GetStatsJson();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const std::string want =
      "\"dataset.index_bytes\":" + std::to_string(16 * points_->size());
  EXPECT_NE(json.value().find(want), std::string::npos) << json.value();
}

TEST_F(ObservabilityFixture, EveryServedRequestFinishesOneTrace) {
  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const FitSpec spec{"ug", {}, kEpsilon, 0xC11};
  const std::vector<Box> queries = TestQueries();
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    auto answers = client.value().QueryBatch(spec, queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  }
  // Traces finish when the reply's last byte is flushed, which the client
  // has observed by the time QueryBatch returned — but give the loop
  // thread a moment to run its bookkeeping after the final send.
  std::uint64_t finished = 0;
  for (int spin = 0; spin < 100; ++spin) {
    finished = obs::TraceRing::Global().finished();
    if (finished >= kRequests + 1) break;  // +1 for the Hello.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(finished, static_cast<std::uint64_t>(kRequests));

  // The most recent query trace carries the pipeline's span skeleton.
  bool found_query_trace = false;
  for (const obs::TraceContext& trace :
       obs::TraceRing::Global().Recent()) {
    if (trace.span(obs::Span::kKernel) < 0) continue;
    found_query_trace = true;
    EXPECT_GE(trace.span(obs::Span::kDispatch), 0);
    EXPECT_GE(trace.span(obs::Span::kQueueWait), 0);
    EXPECT_GE(trace.span(obs::Span::kFit), 0);
    EXPECT_GE(trace.span(obs::Span::kSerialize), 0);
    EXPECT_GE(trace.span(obs::Span::kSocketWrite), 0);
    EXPECT_GE(trace.total_us, 0);
  }
  EXPECT_TRUE(found_query_trace);
}

TEST_F(ObservabilityFixture, ClientTraceIdsSurfaceInTheRing) {
  auto client = Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  client.value().EnableTraceIds(0x5EED0000);
  const FitSpec spec{"ug", {}, kEpsilon, 0xC11};
  auto answers = client.value().QueryBatch(spec, TestQueries());
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();

  bool found = false;
  for (int spin = 0; spin < 100 && !found; ++spin) {
    for (const obs::TraceContext& trace :
         obs::TraceRing::Global().Recent()) {
      if (trace.trace_id == 0x5EED0000 && trace.client_supplied_id) {
        found = true;
        break;
      }
    }
    if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(found) << "client-supplied trace id never reached the ring";
}

}  // namespace
}  // namespace privtree::server
