// The epoll readiness loop, end to end: served answers are bit-for-bit
// in-process ReleaseSession answers (spatial and sequence tenants, across
// 64 concurrent connections), pipelined frames come back in request order,
// a half-open slow-loris peer is reaped by the idle timeout without
// disturbing other clients (the regression this file pins), malformed
// length prefixes answer ErrorReply and close cleanly, server-side errors
// (a non-finite ε and the retired Warm/Stats tags among them) come back as
// statuses on a connection that keeps serving, and Shutdown drains the
// loop gracefully.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/byteio.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "eval/workload.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/sequence_query.h"
#include "release/session.h"
#include "seq/sequence.h"
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

constexpr double kEpsilon = 1.0;
constexpr std::uint64_t kSeed = 0xC11;

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

constexpr std::size_t kAlphabet = 6;
constexpr std::size_t kLTop = 8;

SequenceDataset TestSequences(std::size_t n = 300) {
  Rng rng(0xDA7A5EC);
  SequenceDataset data(kAlphabet);
  std::vector<Symbol> s;
  for (std::size_t i = 0; i < n; ++i) {
    s.clear();
    const std::size_t len = 1 + rng.NextBounded(10);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(kAlphabet)));
    }
    data.Add(s);
  }
  return data.Truncate(kLTop);
}

std::vector<release::SequenceQuery> TestSequenceQueries() {
  std::vector<release::SequenceQuery> queries;
  Rng rng(0xF00D);
  for (int i = 0; i < 24; ++i) {
    std::vector<Symbol> s;
    const std::size_t len = 1 + rng.NextBounded(4);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<Symbol>(rng.NextBounded(kAlphabet)));
    }
    queries.push_back(i % 4 == 0
                          ? release::SequenceQuery::PrefixCount(s)
                          : release::SequenceQuery::Frequency(s));
  }
  queries.push_back(release::SequenceQuery::TopK(5, 2));
  return queries;
}

/// One epoll serving stack on an ephemeral port, torn down in order.
class EventLoopFixture : public ::testing::Test {
 protected:
  void SetUp() override { Start({}); }

  void Start(EventLoopOptions options) {
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
    loop_ = std::make_unique<EventLoop>(
        *dispatcher_, std::move(listener).value(), options);
    port_ = loop_->port();
    serving_ = std::thread([this] { run_status_ = loop_->Run(); });
  }

  void TearDown() override {
    loop_->Stop();
    serving_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  Client MustConnect() {
    auto connected = Client::Connect("127.0.0.1", port_);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    return std::move(connected).value();
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

TEST_F(EventLoopFixture, ServesReleaseSessionAnswersBitForBit) {
  Client client = MustConnect();
  const std::vector<Box> queries = TestQueries();
  for (const std::string& method :
       release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSpatial)) {
    const FitSpec spec{method, {}, kEpsilon, kSeed};
    const auto answers = client.QueryBatch(spec, queries);
    ASSERT_TRUE(answers.ok()) << method << ": "
                              << answers.status().ToString();
    release::ReleaseSession session(*points_, Box::UnitCube(2), kEpsilon,
                                    kSeed);
    const std::vector<double> want =
        session.Release(method, kEpsilon)->QueryBatch(queries);
    ASSERT_EQ(answers.value().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(answers.value()[i], want[i])
          << method << " query " << i << " diverged over epoll";
    }
  }
}

TEST_F(EventLoopFixture, PipelinedFramesAnswerInRequestOrder) {
  // Send many frames back to back without reading, then collect every
  // reply: each must decode and arrive in request order (Fit replies
  // carry the method name, which is how order is observable).
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();

  const std::vector<std::string> methods = {"privtree", "ug", "wavelet",
                                            "privtree", "ag", "ug"};
  std::string burst;
  for (const std::string& method : methods) {
    const std::string payload =
        EncodeFit({FitSpec{method, {}, kEpsilon, kSeed}, 0, 0});
    ByteWriter w(&burst);
    w.U32(static_cast<std::uint32_t>(payload.size()));
    burst.append(payload);
  }
  ASSERT_EQ(::send(conn.fd(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  for (std::size_t i = 0; i < methods.size(); ++i) {
    auto reply = conn.RecvFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i;
    FitReply fit;
    ASSERT_TRUE(DecodeFitReply(reply.value(), &fit).ok()) << "reply " << i;
    EXPECT_EQ(fit.metadata.method, methods[i])
        << "pipelined reply " << i << " out of order";
  }
  EXPECT_GE(loop_->stats().served_frames, methods.size());
}

TEST_F(EventLoopFixture, ConcurrentClientsShareOneCache) {
  // Mixed traffic: a sequence tenant beside the spatial default, and 8
  // threads each holding 8 live connections (64 in all) that send both
  // kinds of batch.  Every answer must be the ReleaseSession answer, bit
  // for bit.
  const SequenceDataset sequences = TestSequences();
  const auto seq_tenant = registry_->Register("seq", sequences);
  ASSERT_TRUE(seq_tenant.ok()) << seq_tenant.status().ToString();

  const std::vector<Box> queries = TestQueries();
  const std::vector<release::SequenceQuery> seq_queries =
      TestSequenceQueries();
  release::MethodOptions seq_options;
  seq_options.Set("l_top", std::to_string(kLTop));
  struct Case {
    FitSpec spec;
    bool sequence;
    std::vector<double> want;
  };
  std::vector<Case> cases = {
      {{"privtree", {}, kEpsilon, kSeed}, false, {}},
      {{"ug", {}, kEpsilon, kSeed}, false, {}},
      {{"pst_privtree", seq_options, kEpsilon, kSeed}, true, {}},
      {{"ngram", seq_options, kEpsilon, kSeed}, true, {}}};
  for (Case& c : cases) {
    if (c.sequence) {
      release::ReleaseSession session(sequences, kEpsilon, kSeed);
      c.want = session.ReleaseRemaining(c.spec.method, c.spec.options)
                   ->QueryBatch(std::span(seq_queries));
    } else {
      release::ReleaseSession session(*points_, Box::UnitCube(2), kEpsilon,
                                      kSeed);
      c.want = session.Release(c.spec.method, kEpsilon)->QueryBatch(queries);
    }
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kConnectionsPerThread = 8;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<Client> connections;
      for (std::size_t c = 0; c < kConnectionsPerThread; ++c) {
        auto connected = Client::Connect("127.0.0.1", port_);
        if (!connected.ok()) {
          ++failures;
          continue;
        }
        connections.push_back(std::move(connected).value());
      }
      for (Client& client : connections) {
        for (const Case& c : cases) {
          client.SelectDataset(c.sequence ? seq_tenant.value() : 0);
          const auto answers =
              c.sequence ? client.SeqQueryBatch(c.spec, seq_queries)
                         : client.QueryBatch(c.spec, queries);
          if (!answers.ok()) {
            ++failures;
          } else if (answers.value() != c.want) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // All connections shared one cache: exactly one fit per (tenant, method).
  EXPECT_EQ(cache_->stats().misses, cases.size());
}

class EventLoopTimeoutFixture : public EventLoopFixture {
 protected:
  void SetUp() override {
    EventLoopOptions options;
    options.idle_timeout = std::chrono::milliseconds(150);
    Start(options);
  }
};

TEST_F(EventLoopTimeoutFixture, SlowLorisHalfFrameIsReapedByIdleTimeout) {
  // The regression: a peer that sends two bytes of a length prefix and
  // stalls used to hold its server thread hostage forever.  Under the
  // event loop the idle timeout reaps it with a clean close, and a
  // well-behaved client on the same loop stays fully served throughout.
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection loris = std::move(dialed).value();
  const char half_header[2] = {0x10, 0x00};  // A partial length prefix.
  ASSERT_EQ(::send(loris.fd(), half_header, sizeof(half_header), 0), 2);

  // The healthy client keeps getting answers while the loris waits.
  Client healthy = MustConnect();
  const std::vector<Box> queries = TestQueries(5);
  for (int i = 0; i < 3; ++i) {
    const auto answers =
        healthy.QueryBatch({"ug", {}, kEpsilon, kSeed}, queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // By now (>= 300ms > 150ms idle) the loris must have been reaped: its
  // next read observes the server-side close as a clean error Status.
  const auto reply = loris.RecvFrame();
  ASSERT_FALSE(reply.ok());
  EXPECT_GE(loop_->stats().reaped_idle, 1u);

  // And the loop still accepts and serves new connections.
  Client after = MustConnect();
  EXPECT_TRUE(after.QueryBatch({"ug", {}, kEpsilon, kSeed}, queries).ok());
}

TEST_F(EventLoopTimeoutFixture, BusyConnectionsAreNeverReaped) {
  // A connection with steady traffic outlives many idle timeouts.
  Client client = MustConnect();
  const std::vector<Box> queries = TestQueries(3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client.QueryBatch({"privtree", {}, kEpsilon, kSeed}, queries).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  EXPECT_EQ(loop_->stats().reaped_idle, 0u);
}

TEST_F(EventLoopFixture, OversizedLengthPrefixAnswersErrorAndCloses) {
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  // A length prefix far past kMaxFramePayload.
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(conn.fd(), huge, sizeof(huge), 0), 4);

  auto reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply);
  Status carried;
  ASSERT_TRUE(DecodeErrorReply(reply.value(), &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  // The stream is unsynchronized; the server closes after the error.
  EXPECT_FALSE(conn.RecvFrame().ok());
  EXPECT_GE(loop_->stats().malformed_frames, 1u);

  // Other connections are unaffected.
  Client client = MustConnect();
  EXPECT_TRUE(
      client.QueryBatch({"ug", {}, kEpsilon, kSeed}, TestQueries(3)).ok());
}

TEST_F(EventLoopFixture, MalformedPayloadKeepsTheConnectionAlive) {
  // A well-framed but undecodable payload answers ErrorReply and keeps
  // serving — only an unsynchronized *stream* forces a close.
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  ASSERT_TRUE(conn.SendFrame("garbage frame").ok());
  auto reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply);
  Status carried;
  ASSERT_TRUE(DecodeErrorReply(reply.value(), &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);

  // A reply tag sent as a request is refused, not crashed on.
  ASSERT_TRUE(conn.SendFrame(EncodeShutdownReply()).ok());
  reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(PeekType(reply.value()).value(), MessageType::kErrorReply);

  ASSERT_TRUE(conn.SendFrame(EncodeHello(HelloRequest{})).ok());
  reply = conn.RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(PeekType(reply.value()).value(), MessageType::kHelloReply);
}

TEST_F(EventLoopFixture, HelloDescribesTheServedDataset) {
  Client client = MustConnect();
  EXPECT_EQ(client.info().dim, 2u);
  EXPECT_EQ(client.info().point_count, points_->size());
  EXPECT_EQ(client.info().dataset_fingerprint,
            registry_->default_fingerprint());
  ASSERT_EQ(client.info().datasets.size(), 1u);
  EXPECT_EQ(client.info().datasets[0].name, "test");
  EXPECT_EQ(client.info().budget_total, 0.0);  // No budget configured.
  EXPECT_EQ(client.info().methods,
            release::GlobalMethodRegistry().Names(
                release::DatasetKind::kSpatial));
}

TEST_F(EventLoopFixture, ServerSideErrorsComeBackAsStatuses) {
  Client client = MustConnect();
  const auto unknown = client.Fit({"nonsense", {}, kEpsilon, kSeed});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  const auto negative = client.Fit({"ug", {}, -2.0, kSeed});
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  // The connection survives rejected requests.
  const auto fitted = client.Fit({"ug", {}, kEpsilon, kSeed});
  EXPECT_TRUE(fitted.ok());
}

/// Sends `payload` on `conn` and returns the reply frame.
std::string RoundTrip(Connection& conn, const std::string& payload) {
  EXPECT_TRUE(conn.SendFrame(payload).ok());
  auto reply = conn.RecvFrame();
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? std::move(reply).value() : std::string();
}

TEST_F(EventLoopFixture, RetiredTagsAreRefusedAndTheConnectionServes) {
  // Protocol v6 retired Warm (tag 4) and Stats (tag 5).  Frames carrying
  // them, with the bodies v5 gave them, answer InvalidArgument, and the
  // same connection still serves a Fit afterwards.
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  std::string warm;
  ByteWriter w(&warm);
  w.U32(4);
  w.U64(0);  // Dataset fingerprint: the server default.
  w.U64(0);  // No specs.
  std::string stats;
  ByteWriter(&stats).U32(5);
  for (const std::string& payload : {warm, stats}) {
    const std::string reply = RoundTrip(conn, payload);
    ASSERT_EQ(PeekType(reply).value(), MessageType::kErrorReply);
    Status carried;
    ASSERT_TRUE(DecodeErrorReply(reply, &carried).ok());
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument)
        << carried.ToString();
  }
  FitReply fitted;
  ASSERT_TRUE(DecodeFitReply(
                  RoundTrip(conn, EncodeFit({{"ug", {}, kEpsilon, kSeed}})),
                  &fitted)
                  .ok());
  EXPECT_EQ(fitted.metadata.method, "ug");
}

TEST_F(EventLoopFixture, InfiniteEpsilonIsRefusedWithoutChargeOrCrash) {
  // +inf passes a bare `epsilon > 0` screen and aborts in every fitter's
  // contract checks; the server must refuse it as a bad spec instead.
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  const FitSpec infinite{"ug", {}, std::numeric_limits<double>::infinity(),
                         kSeed};
  for (const std::string& payload :
       {EncodeFit({infinite, 0, 0}),
        EncodeQueryBatch({infinite, 0, 0, TestQueries(3)})}) {
    Status carried;
    ASSERT_TRUE(DecodeErrorReply(RoundTrip(conn, payload), &carried).ok());
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  }
  // The session was charged nothing...
  HelloReply hello;
  ASSERT_TRUE(
      DecodeHelloReply(RoundTrip(conn, EncodeHello(HelloRequest{})), &hello)
          .ok());
  EXPECT_EQ(hello.budget_spent, 0.0);
  // ...and the server is still serving.
  Client client = MustConnect();
  EXPECT_TRUE(
      client.QueryBatch({"ug", {}, kEpsilon, kSeed}, TestQueries(3)).ok());
}

TEST_F(EventLoopFixture, MixedDimBatchesAreRefusedClientSide) {
  Client client = MustConnect();
  const std::vector<Box> mixed = {Box({0.1, 0.2}, {0.5, 0.6}),
                                  Box({0.1}, {0.5})};
  const auto answers =
      client.QueryBatch({"ug", {}, kEpsilon, kSeed}, mixed);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EventLoopFixture, SequentialReconnectsAreServed) {
  // Many short-lived clients in a row: each must be served, and the loop
  // closes each finished connection before the next one arrives.
  const std::vector<Box> queries = TestQueries(5);
  for (int i = 0; i < 10; ++i) {
    Client client = MustConnect();
    const auto answers =
        client.QueryBatch({"ug", {}, kEpsilon, kSeed}, queries);
    ASSERT_TRUE(answers.ok()) << "reconnect " << i << ": "
                              << answers.status().ToString();
  }
  EXPECT_GE(loop_->stats().accepted, 10u);
}

TEST_F(EventLoopFixture, VersionMismatchIsRefused) {
  auto dialed = Connection::Dial("127.0.0.1", port_);
  ASSERT_TRUE(dialed.ok());
  Connection conn = std::move(dialed).value();
  HelloRequest hello;
  hello.version = kProtocolVersion + 1;
  EXPECT_EQ(PeekType(RoundTrip(conn, EncodeHello(hello))).value(),
            MessageType::kErrorReply);
}

TEST_F(EventLoopFixture, ShutdownFrameDrainsTheLoop) {
  Client client = MustConnect();
  EXPECT_TRUE(client.Shutdown().ok());
  serving_.join();  // Run() must return on its own after Shutdown.
  EXPECT_TRUE(run_status_.ok());
  serving_ = std::thread([] {});  // Keep TearDown's join well-defined.
  // New connections are refused once the loop stopped (port released).
  auto refused = Client::Connect("127.0.0.1", port_);
  EXPECT_FALSE(refused.ok());
}

TEST_F(EventLoopFixture, StopFromAnotherThreadDrains) {
  Client client = MustConnect();
  loop_->Stop();
  serving_.join();
  EXPECT_TRUE(run_status_.ok());
  serving_ = std::thread([] {});
  // The existing connection observes the close.
  EXPECT_FALSE(client.GetStatsJson().ok());
}

class EventLoopCapacityFixture : public EventLoopFixture {
 protected:
  void SetUp() override {
    EventLoopOptions options;
    options.max_connections = 2;
    Start(options);
  }
};

TEST_F(EventLoopCapacityFixture, AcceptsPastCapacityAreRefused) {
  Client a = MustConnect();
  Client b = MustConnect();
  // The third connection is closed on accept: the dial itself succeeds
  // (the kernel completes the handshake) but the handshake frame dies.
  auto refused = Client::Connect("127.0.0.1", port_);
  EXPECT_FALSE(refused.ok());
  EXPECT_GE(loop_->stats().refused_at_capacity, 1u);
  // The two admitted connections still serve.
  EXPECT_TRUE(a.GetStatsJson().ok());
  EXPECT_TRUE(b.GetStatsJson().ok());
}

TEST(ServerSocketTest, DialingAClosedPortFails) {
  // Bind-then-close to find a port that is very likely unused.
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  listener.value().Close();
  auto dialed = Connection::Dial("127.0.0.1", port);
  EXPECT_FALSE(dialed.ok());
  EXPECT_EQ(dialed.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace privtree::server
