// The traced run: the same seeded requests, replayed one layer deeper at a
// time, with a span around each public call.
//
//   depth 1  client    server::Client round trip (the full stack)
//   depth 2  dispatch  Dispatcher::HandleFrame on an in-process registry
//   depth 3  engine    AsyncEngine::Submit* plus the Future wait
//   depth 4  cache     serve::FitSynopsis through the SynopsisCache
//   depth 5  kernel    release::Method::QueryBatch / Fit
//
// A layer's self time is its depth's time minus the next depth's, minus the
// protocol encode/decode (timed separately on the same frames) where the
// layer does that work, and minus the engine's queue wait.  Frames are
// replayed one at a time, each through all five depths back to back, so no
// depth measures queueing behind its own traffic and a drift in host speed
// hits every depth of a frame alike.  Two passes of the workload's own
// traffic (open loop at the reference rate, or the analysts' loop), one
// plain and one in Traced frames with its requests kept as spans, give the
// tracing overhead.  Spans stay in memory and are written out at the end.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "bench.h"
#include "obs/trace.h"
#include "release/dataset.h"
#include "release/serialization.h"
#include "serve/parallel_runner.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/async_engine.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"

namespace servebench {

namespace ps = privtree::server;
namespace rel = privtree::release;
namespace sv = privtree::serve;

namespace {

constexpr const char* kLayers[] = {"client", "dispatch", "engine", "cache",
                                   "kernel"};
constexpr int kDepths = 5;

struct SpanRecord {
  std::uint64_t request = 0;
  std::string layer;
  std::string parent;
  double start_us = 0;
  double end_us = 0;
};

/// In-memory span log, written as JSON lines when the run ends.  Replay
/// spans carry the replayed frame's index as their request id and the
/// depth's layer, with the depth above as parent; the traced pass's spans
/// (layer "client_traced") number that pass's requests.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void Add(std::uint64_t request, const std::string& layer,
           const std::string& parent, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({request, layer, parent, Micros(start - origin_),
                      Micros(end - origin_)});
  }
  std::size_t size() const { return spans_.size(); }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const SpanRecord& s : spans_) {
      out << "{\"request\": " << s.request << ", \"layer\": \"" << s.layer
          << "\", \"parent\": \"" << s.parent << "\", \"start_us\": "
          << s.start_us << ", \"end_us\": " << s.end_us << "}\n";
    }
    if (!out) Fail("cannot write spans to " + path);
  }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

/// One replayed frame: what to send and what each depth measured.
struct Item {
  std::size_t tenant = 0;
  ps::FitSpec spec;
  bool fit = false;        ///< A Fit frame (else a query batch).
  bool cold = false;       ///< Fit of a key seen for the first time.
  std::size_t batch = 0;
  std::string label;       ///< Frame kind + synopsis, for the table.
  std::string payload;     ///< Encoded request.
  double t_us[kDepths] = {0, 0, 0, 0, 0};
  double queue_wait_us = 0;
  double client_codec_us = 0;  ///< Encode request + decode reply.
  double server_codec_us = 0;  ///< Decode request + encode reply.
  double encode_us = 0, decode_us = 0;
  std::vector<double> answers;  ///< Depth-1 answers (queries).
};

/// Blocks until a Dispatcher completion delivers its reply.  The state is
/// shared with the callback, which may still be returning on a pool thread
/// after Wait() has.
class ReplyWaiter {
 public:
  ps::Dispatcher::Done Callback() {
    return [state = state_](std::string reply) {
      {
        std::lock_guard<std::mutex> lk(state->mu);
        state->reply = std::move(reply);
        state->ready = true;
      }
      state->cv.notify_one();
    };
  }
  std::string Wait() {
    std::unique_lock<std::mutex> lk(state_->mu);
    state_->cv.wait(lk, [&] { return state_->ready; });
    return std::move(state_->reply);
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    std::string reply;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// An in-process serving stack with the server's configuration.
struct Stack {
  Stack(const WorkloadSpec& spec, const std::vector<Tenant>& tenants,
        const std::string& spill_dir)
      : pool(2),
        cache(spec.spill ? std::make_unique<sv::SynopsisCache>(
                               spec.cache, sv::SpillOptions{spill_dir, 256})
                         : std::make_unique<sv::SynopsisCache>(spec.cache)),
        registry(pool, *cache, Options()),
        dispatcher(registry) {
    for (const Tenant& t : tenants) {
      auto fp = t.sequence
                    ? registry.Register(t.name, rel::Dataset(*t.sequences))
                    : registry.Register(
                          t.name, rel::Dataset(*t.points,
                                               privtree::Box::UnitCube(t.dim)));
      if (!fp.ok() || fp.value() != t.fingerprint) {
        Fail("in-process registration of " + t.name + " failed");
      }
    }
  }
  static ps::DatasetRegistryOptions Options() {
    ps::DatasetRegistryOptions o;
    o.engine.admission.max_queue_depth = 256;
    return o;
  }

  sv::ThreadPool pool;
  std::unique_ptr<sv::SynopsisCache> cache;
  ps::DatasetRegistry registry;
  ps::Dispatcher dispatcher;
};

bool SameAnswers(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Sends one item through one depth and records its time and span.
class Replayer {
 public:
  Replayer(const std::vector<Tenant>& tenants,
           const std::vector<BatchPool>& pools, SpanLog& spans)
      : tenants_(tenants), pools_(pools), spans_(spans) {}

  std::size_t failures() const { return failures_; }
  std::size_t mismatches() const { return mismatches_; }

  void Client(Item& it, std::size_t i, ps::Client& client) {
    const Tenant& t = tenants_[it.tenant];
    client.SelectDataset(t.fingerprint);
    const auto t0 = Clock::now();
    bool ok = true;
    if (it.fit) {
      ok = client.Fit(it.spec).ok();
    } else {
      auto got = t.sequence ? client.SeqQueryBatch(it.spec, Seq(it))
                            : client.QueryBatch(it.spec, Boxes(it));
      ok = got.ok();
      if (ok) it.answers = std::move(got).value();
    }
    Record(it, i, 0, t0);
    if (!ok) ++failures_;
  }

  void Dispatch(Item& it, std::size_t i, Stack& stack,
                const std::shared_ptr<ps::ClientSession>& session) {
    bool shutdown = false;
    ReplyWaiter waiter;
    const auto t0 = Clock::now();
    stack.dispatcher.HandleFrame(it.payload, session, &shutdown,
                                 waiter.Callback());
    const std::string reply = waiter.Wait();
    Record(it, i, 1, t0);
    auto type = ps::PeekType(reply);
    if (!type.ok() || type.value() == ps::MessageType::kErrorReply) {
      ++failures_;
    } else if (!it.fit) {
      ps::QueryBatchReply decoded;
      if (!ps::DecodeQueryBatchReply(reply, &decoded).ok()) ++failures_;
      Check(it, decoded.answers);
    }
  }

  void Engine(Item& it, std::size_t i, Stack& stack) {
    ps::AsyncEngine* engine =
        stack.registry.Find(tenants_[it.tenant].fingerprint);
    auto trace = privtree::obs::StartTrace();
    std::vector<privtree::Box> boxes;
    std::vector<rel::SequenceQuery> seq;
    if (!it.fit) {
      if (tenants_[it.tenant].sequence) {
        seq = pools_[it.tenant].seq[it.batch];
      } else {
        boxes = pools_[it.tenant].boxes[it.batch];
      }
    }
    const auto t0 = Clock::now();
    if (it.fit) {
      if (!engine->SubmitFit(it.spec, ps::kNoDeadline, trace).Get()
               .status.ok()) {
        ++failures_;
      }
      Record(it, i, 2, t0);
    } else {
      const ps::QueryBatchResponse r =
          tenants_[it.tenant].sequence
              ? engine->SubmitSeqQueryBatch(it.spec, std::move(seq),
                                            ps::kNoDeadline, trace)
                    .Get()
              : engine->SubmitQueryBatch(it.spec, std::move(boxes),
                                         ps::kNoDeadline, trace)
                    .Get();
      Record(it, i, 2, t0);
      if (!r.status.ok()) ++failures_;
      Check(it, r.answers);
    }
    it.queue_wait_us = static_cast<double>(std::max<std::int64_t>(
        0, trace->span(privtree::obs::Span::kQueueWait)));
  }

  void Cache(Item& it, std::size_t i, sv::SynopsisCache& cache) {
    const Tenant& t = tenants_[it.tenant];
    const rel::Dataset data = DatasetOf(t);
    const auto t0 = Clock::now();
    const sv::FitResult fit = sv::FitSynopsis(
        data, t.fingerprint, ps::AsyncEngine::JobFor(it.spec), &cache);
    std::vector<double> answers;
    if (!it.fit) {
      answers = t.sequence ? fit.method->QueryBatch(Seq(it))
                           : fit.method->QueryBatch(Boxes(it));
    }
    Record(it, i, 3, t0);
    if (!it.fit) Check(it, answers);
  }

  /// Kernel depth: a cold fit runs Method::Fit (through an in-process
  /// ReleaseSession, the oracle path); a revisit does no kernel work.
  void Kernel(Item& it, std::size_t i,
              std::map<std::string, std::shared_ptr<rel::Method>>& methods) {
    const Tenant& t = tenants_[it.tenant];
    const std::string key = KeyOf(it);
    std::vector<double> answers;
    const auto t0 = Clock::now();
    if (it.fit) {
      if (it.cold || !methods.contains(key)) {
        methods[key] = OracleFit(t, it.spec);
      }
    } else {
      const rel::Method& m = *methods.at(key);
      answers = t.sequence ? m.QueryBatch(Seq(it)) : m.QueryBatch(Boxes(it));
    }
    Record(it, i, 4, t0);
    if (!it.fit) Check(it, answers);
  }

  /// Times the four protocol codecs a frame goes through.
  void Codecs(std::vector<Item>& items) {
    for (Item& it : items) {
      const Tenant& t = tenants_[it.tenant];
      std::string reply;
      auto t0 = Clock::now();
      if (it.fit) {
        ps::FitRequest req{it.spec, 0, t.fingerprint};
        t0 = Clock::now();
        const std::string payload = ps::EncodeFit(req);
        const double enc_req = Micros(Clock::now() - t0);
        ps::FitRequest decoded;
        t0 = Clock::now();
        if (!ps::DecodeFit(payload, &decoded).ok()) ++failures_;
        const double dec_req = Micros(Clock::now() - t0);
        ps::FitReply out;
        out.metadata.method = it.spec.method;
        t0 = Clock::now();
        reply = ps::EncodeFitReply(out);
        const double enc_rep = Micros(Clock::now() - t0);
        ps::FitReply back;
        t0 = Clock::now();
        if (!ps::DecodeFitReply(reply, &back).ok()) ++failures_;
        const double dec_rep = Micros(Clock::now() - t0);
        Set(it, enc_req, dec_req, enc_rep, dec_rep);
      } else if (t.sequence) {
        ps::SeqQueryBatchRequest req{it.spec, 0, t.fingerprint,
                                     pools_[it.tenant].seq[it.batch]};
        t0 = Clock::now();
        const std::string payload = ps::EncodeSeqQueryBatch(req);
        const double enc_req = Micros(Clock::now() - t0);
        ps::SeqQueryBatchRequest decoded;
        t0 = Clock::now();
        if (!ps::DecodeSeqQueryBatch(payload, &decoded).ok()) ++failures_;
        const double dec_req = Micros(Clock::now() - t0);
        SetReply(it, enc_req, dec_req);
      } else {
        ps::QueryBatchRequest req{it.spec, 0, t.fingerprint,
                                  pools_[it.tenant].boxes[it.batch]};
        t0 = Clock::now();
        const std::string payload = ps::EncodeQueryBatch(req);
        const double enc_req = Micros(Clock::now() - t0);
        ps::QueryBatchRequest decoded;
        t0 = Clock::now();
        if (!ps::DecodeQueryBatch(payload, &decoded).ok()) ++failures_;
        const double dec_req = Micros(Clock::now() - t0);
        SetReply(it, enc_req, dec_req);
      }
    }
  }

  static std::string KeyOf(const Item& it) {
    return it.spec.method + "/" + std::to_string(it.tenant) + "/" +
           std::to_string(it.spec.seed);
  }

 private:
  std::span<const privtree::Box> Boxes(const Item& it) const {
    return pools_[it.tenant].boxes[it.batch];
  }
  std::span<const rel::SequenceQuery> Seq(const Item& it) const {
    return pools_[it.tenant].seq[it.batch];
  }
  static rel::Dataset DatasetOf(const Tenant& t) {
    return t.sequence ? rel::Dataset(*t.sequences)
                      : rel::Dataset(*t.points, privtree::Box::UnitCube(t.dim));
  }

  void Record(Item& it, std::size_t index, int depth, Clock::time_point t0) {
    const auto t1 = Clock::now();
    it.t_us[depth] = Micros(t1 - t0);
    spans_.Add(index, kLayers[depth], depth == 0 ? "" : kLayers[depth - 1],
               t0, t1);
  }

  /// Every depth must return the depth-1 (socket) answers bit for bit.
  void Check(const Item& it, const std::vector<double>& answers) {
    if (!SameAnswers(it.answers, answers)) ++mismatches_;
  }

  void SetReply(Item& it, double enc_req, double dec_req) {
    ps::QueryBatchReply out;
    out.answers = it.answers;
    auto t0 = Clock::now();
    const std::string reply = ps::EncodeQueryBatchReply(out);
    const double enc_rep = Micros(Clock::now() - t0);
    ps::QueryBatchReply back;
    t0 = Clock::now();
    if (!ps::DecodeQueryBatchReply(reply, &back).ok()) ++failures_;
    const double dec_rep = Micros(Clock::now() - t0);
    Set(it, enc_req, dec_req, enc_rep, dec_rep);
  }

  static void Set(Item& it, double enc_req, double dec_req, double enc_rep,
                  double dec_rep) {
    it.client_codec_us = enc_req + dec_rep;
    it.server_codec_us = dec_req + enc_rep;
    it.encode_us = enc_req + enc_rep;
    it.decode_us = dec_req + dec_rep;
  }

  const std::vector<Tenant>& tenants_;
  const std::vector<BatchPool>& pools_;
  SpanLog& spans_;
  std::size_t failures_ = 0;
  std::size_t mismatches_ = 0;
};

std::string Payload(const Item& it, const Tenant& t, const BatchPool& pool) {
  if (it.fit) return ps::EncodeFit({it.spec, 0, t.fingerprint});
  if (t.sequence) {
    return ps::EncodeSeqQueryBatch({it.spec, 0, t.fingerprint,
                                    pool.seq[it.batch]});
  }
  return ps::EncodeQueryBatch({it.spec, 0, t.fingerprint,
                               pool.boxes[it.batch]});
}

/// Self times per layer (clamped at zero) and the unattributed residual.
struct LayerTable {
  double client_us = 0, event_us = 0, encode_us = 0, decode_us = 0,
         dispatch_us = 0, engine_us = 0, queue_wait_us = 0, cache_us = 0,
         kernel_us = 0, unattributed_us = 0;
  std::vector<double> event_each, queue_each;
};

LayerTable Attribute(const std::vector<Item>& items) {
  LayerTable t;
  std::vector<double> d[kDepths], enc, dec, qw, cc, sc;
  for (const Item& it : items) {
    for (int k = 0; k < kDepths; ++k) d[k].push_back(it.t_us[k]);
    enc.push_back(it.encode_us);
    dec.push_back(it.decode_us);
    qw.push_back(it.queue_wait_us);
    cc.push_back(it.client_codec_us);
    sc.push_back(it.server_codec_us);
    t.event_each.push_back(it.t_us[0] - it.t_us[1] - it.client_codec_us);
    t.queue_each.push_back(it.queue_wait_us);
  }
  const auto clamp = [](double v) { return std::max(0.0, v); };
  t.client_us = Mean(d[0]);
  t.encode_us = Mean(enc);
  t.decode_us = Mean(dec);
  t.event_us = clamp(Mean(d[0]) - Mean(d[1]) - Mean(cc));
  t.dispatch_us = clamp(Mean(d[1]) - Mean(d[2]) - Mean(sc));
  t.queue_wait_us = Mean(qw);
  t.engine_us = clamp(Mean(d[2]) - Mean(d[3]) - t.queue_wait_us);
  t.cache_us = clamp(Mean(d[3]) - Mean(d[4]));
  t.kernel_us = Mean(d[4]);
  t.unattributed_us = t.client_us - (t.event_us + t.encode_us + t.decode_us +
                                     t.dispatch_us + t.engine_us +
                                     t.queue_wait_us + t.cache_us +
                                     t.kernel_us);
  return t;
}

/// Envelope save/load costs of fitted synopses (median of five each).
struct Envelope {
  double save_us = 0, load_us = 0, bytes = 0;
  std::size_t samples = 0;
};

Envelope MeasureEnvelopes(const std::vector<const rel::Method*>& methods) {
  std::vector<double> save, load, bytes;
  for (const rel::Method* m : methods) {
    std::vector<double> s5, l5;
    std::string blob;
    for (int rep = 0; rep < 5; ++rep) {
      std::ostringstream out;
      auto t0 = Clock::now();
      if (!m->Save(out).ok()) Fail("Save failed");
      s5.push_back(Micros(Clock::now() - t0));
      blob = out.str();
      std::istringstream in(blob);
      t0 = Clock::now();
      auto loaded = rel::LoadMethod(in);
      l5.push_back(Micros(Clock::now() - t0));
      if (!loaded.ok()) Fail("LoadMethod failed: " + loaded.status().ToString());
    }
    save.push_back(Quantile(s5, 0.5));
    load.push_back(Quantile(l5, 0.5));
    bytes.push_back(static_cast<double>(blob.size()));
  }
  return {Mean(save), Mean(load), Mean(bytes), methods.size()};
}

/// The frames of the seeded schedule the timed run sends first (after its
/// warm-up draws), as replay items.
std::vector<Item> QueryItems(const WorkloadSpec& spec,
                             const std::vector<Tenant>& tenants,
                             const std::vector<BatchPool>& pools,
                             std::uint64_t seed, std::size_t count) {
  privtree::Rng rng(seed, 0x5eed);
  Schedule(spec, static_cast<std::size_t>(spec.reference_rate * 1.0), rng);
  const auto order = Schedule(spec, count, rng);
  std::vector<Item> items;
  for (std::size_t k : order) {
    const Synopsis& syn = spec.warm[k / spec.batches];
    Item it;
    it.tenant = syn.tenant;
    it.spec = syn.spec;
    it.batch = k % spec.batches;
    it.label = (tenants[syn.tenant].sequence ? "SeqQueryBatch " : "QueryBatch ") +
               syn.label;
    it.payload = Payload(it, tenants[it.tenant], pools[it.tenant]);
    items.push_back(std::move(it));
  }
  return items;
}

std::vector<Item> ChurnItems(const WorkloadSpec& spec,
                             const std::vector<Tenant>& tenants,
                             const std::vector<BatchPool>& pools,
                             std::uint64_t seed, std::size_t steps) {
  ChurnStream stream(seed, 0, spec.batches);
  std::vector<Item> items;
  for (std::size_t s = 0; s < steps; ++s) {
    const ChurnStep step = stream.Next();
    const ChurnKind& kind = kChurnKinds[step.kind];
    Item fit;
    fit.tenant = TenantIndex(spec.tenants, kind.tenant);
    fit.spec = Spec(kind.method, 1.0, step.seed);
    fit.fit = true;
    fit.cold = step.cold;
    fit.batch = step.batch;
    const std::string syn = std::string(kind.method) + "_" + kind.tenant;
    fit.label = (step.cold ? "Fit(cold) " : "Fit(revisit) ") + syn;
    fit.payload = Payload(fit, tenants[fit.tenant], pools[fit.tenant]);
    Item query = fit;
    query.fit = false;
    query.cold = false;
    query.label = (tenants[fit.tenant].sequence ? "SeqQueryBatch " : "QueryBatch ") + syn;
    query.payload = Payload(query, tenants[fit.tenant], pools[fit.tenant]);
    items.push_back(std::move(fit));
    items.push_back(std::move(query));
  }
  return items;
}

}  // namespace

int RunTraced(const Options& o) {
  WorkloadSpec spec = GetWorkload(o.workload);
  SeedWarmSpecs(spec, o.seed);
  const auto tenants = MakeTenants(spec.tenants, o.seed, o.workdir);
  PrintCommon(o, spec, tenants);
  const auto pools = MakePools(spec, tenants, o.seed);
  SpanLog spans(Clock::now());
  Replayer replay(tenants, pools, spans);
  std::size_t attempted = 0, pass_failed = 0;

  // Tracing overhead: the same traffic without and with Traced frames and
  // a client span per request.
  std::vector<double> plain, traced;
  double late_p99 = 0;
  std::size_t late_samples = 0;
  const double pass_seconds = std::max(2.0, o.seconds / 4);
  std::vector<Item> items;
  QueryPlan plan;
  if (spec.open_loop) {
    plan = MakeQueryPlan(spec, tenants, pools);
    Setup s = SetUp(o, spec, tenants, 0);
    std::vector<ps::Connection> conns;
    for (std::size_t i = 0; i < spec.connections; ++i) {
      conns.push_back(DialRaw(s.port));
    }
    privtree::Rng rng(o.seed, 0x7ace);
    const auto count = static_cast<std::size_t>(spec.reference_rate *
                                                pass_seconds);
    const auto order = Schedule(spec, count, rng);
    RunOpenLoop(conns, plan.frames, order, spec.reference_rate, 128,
                plan.expected);  // Warm-up, discarded.
    const OpenLoopResult a = RunOpenLoop(conns, plan.frames, order,
                                         spec.reference_rate, 128,
                                         plan.expected);
    std::vector<PreparedFrame> wrapped = plan.frames;
    for (std::size_t i = 0; i < wrapped.size(); ++i) {
      wrapped[i].frame = Frame(ps::EncodeTraced(
          i + 1, std::string_view(plan.frames[i].frame).substr(4)));
    }
    const OpenLoopResult b = RunOpenLoop(conns, wrapped, order,
                                         spec.reference_rate, 128,
                                         plan.expected);
    if (b.failed == 0) {
      for (std::size_t i = 0; i < b.latency_ms.size(); ++i) {
        const auto due = b.start + std::chrono::nanoseconds(
                                       static_cast<std::int64_t>(
                                           static_cast<double>(i) * 1e9 /
                                           spec.reference_rate));
        spans.Add(i, "client_traced", "", due,
                  due + std::chrono::nanoseconds(static_cast<std::int64_t>(
                            b.latency_ms[i] * 1e6)));
      }
    }
    plain = a.latency_ms;
    traced = b.latency_ms;
    late_p99 = Quantile(a.late_ms, 0.99);
    late_samples = a.late_ms.size();
    attempted += a.sent + b.sent;
    pass_failed += a.failed + a.mismatched + b.failed + b.mismatched;
    for (auto& c : conns) c.Close();
    s.server->Stop();
    // At least 1000 frames, so the p99 tails have ten samples beyond
    // them; more where frames are cheap.
    items = QueryItems(spec, tenants, pools, o.seed,
                       spec.boxes_per_request > 64 ? 1000 : 4000);
  } else {
    Setup s = SetUp(o, spec, tenants, 0);
    ps::Client client = ConnectClient(s.port);
    for (int pass = 0; pass < 2; ++pass) {
      ChurnStream stream(o.seed, 10 + pass, spec.batches);
      if (pass == 1) client.EnableTraceIds();
      const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(pass_seconds));
      while (Clock::now() < until) {
        const ChurnStep step = stream.Next();
        const ChurnKind& kind = kChurnKinds[step.kind];
        const std::size_t ti = TenantIndex(spec.tenants, kind.tenant);
        const Tenant& t = tenants[ti];
        const ps::FitSpec fs = Spec(kind.method, 1.0, step.seed);
        client.SelectDataset(t.fingerprint);
        if (!client.Fit(fs).ok()) ++pass_failed;
        const auto t0 = Clock::now();
        const bool ok =
            t.sequence ? client.SeqQueryBatch(fs, pools[ti].seq[step.batch]).ok()
                       : client.QueryBatch(fs, pools[ti].boxes[step.batch]).ok();
        const auto t1 = Clock::now();
        if (!ok) ++pass_failed;
        attempted += 2;
        (pass == 0 ? plain : traced).push_back(Millis(t1 - t0));
        if (pass == 1) {
          spans.Add(traced.size() - 1, "client_traced", "", t0, t1);
        }
      }
    }
    s.server->Stop();
    items = ChurnItems(spec, tenants, pools, o.seed, 80);
  }

  // All five depths stay up side by side and every frame goes through
  // them back to back, so host speed drifts hit the depths of one frame
  // alike.  Depth 1 runs on a fresh server, so cold fits are cold again;
  // depths 2-4 each get an in-process stack configured like the server,
  // with the warm set fitted first, as in the server set-up.
  Setup fresh = SetUp(o, spec, tenants, 1);
  ps::Client client = ConnectClient(fresh.port);
  Stack dispatch_stack(spec, tenants, o.workdir + "/spill-dispatch");
  Stack engine_stack(spec, tenants, o.workdir + "/spill-engine");
  auto cache = spec.spill ? std::make_unique<sv::SynopsisCache>(
                                spec.cache,
                                sv::SpillOptions{o.workdir + "/spill-cache", 256})
                          : std::make_unique<sv::SynopsisCache>(spec.cache);
  std::map<std::string, std::shared_ptr<rel::Method>> methods;
  std::vector<double> fit_spatial_ms, fit_seq_ms, fit_nodes;
  for (const Synopsis& syn : spec.warm) {
    const Tenant& t = tenants[syn.tenant];
    for (Stack* stack : {&dispatch_stack, &engine_stack}) {
      if (!stack->registry.Find(t.fingerprint)->SubmitFit(syn.spec).Get()
               .status.ok()) {
        Fail("in-process warm fit failed");
      }
    }
    sv::FitSynopsis(t.sequence ? rel::Dataset(*t.sequences)
                               : rel::Dataset(*t.points,
                                              privtree::Box::UnitCube(t.dim)),
                    t.fingerprint, ps::AsyncEngine::JobFor(syn.spec),
                    cache.get());
    // Kernel-depth fits of the warm set are timed like cold churn fits.
    const auto t0 = Clock::now();
    auto m = OracleFit(t, syn.spec);
    (t.sequence ? fit_seq_ms : fit_spatial_ms)
        .push_back(Millis(Clock::now() - t0));
    if (!t.sequence) {
      fit_nodes.push_back(static_cast<double>(m->Metadata().synopsis_size));
    }
    Item key_item;
    key_item.tenant = syn.tenant;
    key_item.spec = syn.spec;
    methods[Replayer::KeyOf(key_item)] = std::move(m);
  }
  const auto session = dispatch_stack.dispatcher.NewSession();
  const ServerCounters before = ReadCounters(client);
  for (std::size_t i = 0; i < items.size(); ++i) {
    replay.Client(items[i], i, client);
    replay.Dispatch(items[i], i, dispatch_stack, session);
    replay.Engine(items[i], i, engine_stack);
    replay.Cache(items[i], i, *cache);
    replay.Kernel(items[i], i, methods);
  }
  const ServerCounters delta = ReadCounters(client) - before;
  const bool counters_ok = CheckCounters(delta, items.size(), items.size());
  fresh.server->Stop();
  const sv::SynopsisCache::Stats engine_cache = engine_stack.cache->stats();
  for (const Item& it : items) {
    if (!it.fit || !it.cold) continue;
    const Tenant& t = tenants[it.tenant];
    (t.sequence ? fit_seq_ms : fit_spatial_ms).push_back(it.t_us[4] / 1000.0);
    if (!t.sequence) {
      fit_nodes.push_back(static_cast<double>(
          methods.at(Replayer::KeyOf(it))->Metadata().synopsis_size));
    }
  }
  replay.Codecs(items);

  std::vector<const rel::Method*> saved;
  for (const auto& [key, m] : methods) {
    saved.push_back(m.get());
    if (saved.size() == 8) break;
  }
  const Envelope env = MeasureEnvelopes(saved);

  // Kernel cost per 1000 queries, by synopsis and by kind.
  std::map<std::string, std::pair<double, double>> per_label;  // us, queries
  double spatial_us = 0, spatial_q = 0, seq_us = 0, seq_q = 0;
  for (const Item& it : items) {
    if (it.fit) continue;
    const bool sequence = tenants[it.tenant].sequence;
    const double q = static_cast<double>(
        sequence ? pools[it.tenant].seq[it.batch].size()
                 : pools[it.tenant].boxes[it.batch].size());
    (sequence ? seq_us : spatial_us) += it.t_us[4];
    (sequence ? seq_q : spatial_q) += q;
    per_label[it.label].first += it.t_us[4];
    per_label[it.label].second += q;
  }

  const LayerTable table = Attribute(items);
  attempted += items.size() * kDepths;
  const std::size_t failed =
      pass_failed + replay.failures() + replay.mismatches();

  // The per-layer table, with the end-to-end metric each layer should move.
  std::printf("\nlayer table (mean us per frame over %zu frames, replayed "
              "one at a time)\n", items.size());
  const auto row = [&](const char* layer, double us, const char* moves) {
    std::printf("  %-22s %12.2f us %6.1f%%   %s\n", layer, us,
                100.0 * us / table.client_us, moves);
  };
  row("event (socket+loop)", table.event_us,
      "query_p50_ms, query_max_rps on small_rpc");
  row("protocol encode", table.encode_us,
      "query_p50_ms on small_rpc; query_heavy at 1k boxes");
  row("protocol decode", table.decode_us,
      "query_p50_ms on small_rpc; query_heavy at 1k boxes");
  row("dispatch", table.dispatch_us, "query_p50_ms on small_rpc");
  row("engine", table.engine_us, "query_p99_ms, query_max_rps, error_rate");
  row("engine queue wait", table.queue_wait_us,
      "query_p99_ms, query_max_rps, error_rate");
  row("cache", table.cache_us, "fit_p50_ms, fits_per_s, rss_mb on fit_churn");
  row("kernel", table.kernel_us,
      "query_p50_ms, query_max_rps on query_heavy; fit_* on fit_churn");
  row("unattributed", table.unattributed_us, "-");
  row("end to end (client)", table.client_us, "-");
  const double sum = table.event_us + table.encode_us + table.decode_us +
                     table.dispatch_us + table.queue_wait_us +
                     table.engine_us + table.cache_us + table.kernel_us +
                     table.unattributed_us;
  const bool conserved =
      std::abs(sum - table.client_us) <= 1e-3 * table.client_us;
  std::printf("conservation: self times + unattributed = %.2f us vs end to "
              "end %.2f us (tolerance 0.1%%): %s; unattributed share %.1f%%\n",
              sum, table.client_us, conserved ? "ok" : "VIOLATED",
              100.0 * table.unattributed_us / table.client_us);
  for (const auto& [label, v] : per_label) {
    std::printf("kernel %-36s %10.2f us per 1000 queries\n", label.c_str(),
                1000.0 * v.first / v.second);
  }
  std::printf("cross-check engine.queue_wait_us: server histogram mean %.2f "
              "us over %.0f requests; in-process depth-3 mean %.2f us; "
              "in-process cache hits %zu misses %zu\n",
              delta.queue_wait_count > 0
                  ? delta.queue_wait_sum_us / delta.queue_wait_count
                  : 0.0,
              delta.queue_wait_count, table.queue_wait_us, engine_cache.hits,
              engine_cache.misses);
  std::printf("tracing overhead: p50 %.4f ms traced vs %.4f ms plain "
              "(%zu / %zu requests)\n",
              Quantile(traced, 0.5), Quantile(plain, 0.5), traced.size(),
              plain.size());
  std::printf("check answers: %zu depth replays differ from the socket "
              "answers; %zu failures\n", replay.mismatches(), failed);

  if (!o.spans_path.empty()) spans.Write(o.spans_path);
  std::printf("spans %zu written to %s\n", spans.size(),
              o.spans_path.empty() ? "(nowhere)" : o.spans_path.c_str());

  const std::size_t n = items.size();
  Report r;
  const double event_level = TailLevel(n);
  r.Add("event.self_us_p50", Quantile(table.event_each, 0.5), "us", n);
  r.Add("event.self_us_tail", Quantile(table.event_each, event_level), "us", n);
  r.Add("protocol.encode_us", table.encode_us, "us", n);
  r.Add("protocol.decode_us", table.decode_us, "us", n);
  r.Add("dispatch.self_us", table.dispatch_us, "us", n);
  r.Add("engine.self_us", table.engine_us, "us", n);
  r.Add("engine.queue_wait_us_p50", Quantile(table.queue_each, 0.5), "us", n);
  r.Add("engine.queue_wait_us_tail", Quantile(table.queue_each, event_level),
        "us", n);
  r.Add("admission.admitted", delta.admitted, "count", n);
  r.Add("admission.shed", delta.shed, "count", n);
  r.Add("admission.coalesced_fits", delta.coalesced, "count", n);
  const double lookups = delta.hits + delta.misses;
  r.Add("cache.hit_ratio", lookups > 0 ? delta.hits / lookups : 0, "ratio",
        static_cast<std::size_t>(lookups));
  r.Add("cache.misses", delta.misses, "count", n);
  r.Add("cache.evictions", delta.evictions, "count", n);
  r.Add("cache.spill_writes", delta.spill_writes, "count", n);
  r.Add("cache.spill_hits", delta.spill_hits, "count", n);
  r.Add("cache.writeback_hits", delta.writeback_hits, "count", n);
  r.Add("cache.resident_mb", delta.resident_bytes / (1024.0 * 1024.0), "MiB",
        1);
  r.Add("cache.self_us", table.cache_us, "us", n);
  r.Add("envelope.save_us", env.save_us, "us", env.samples);
  r.Add("envelope.load_us", env.load_us, "us", env.samples);
  r.Add("envelope.bytes", env.bytes, "bytes", env.samples);
  r.Add("kernel.spatial_us_per_kq",
        spatial_q > 0 ? 1000.0 * spatial_us / spatial_q : 0, "us",
        static_cast<std::size_t>(spatial_q));
  r.Add("kernel.seq_us_per_kq", seq_q > 0 ? 1000.0 * seq_us / seq_q : 0, "us",
        static_cast<std::size_t>(seq_q));
  r.Add("fit.spatial_ms", Mean(fit_spatial_ms), "ms", fit_spatial_ms.size());
  r.Add("fit.seq_ms", Mean(fit_seq_ms), "ms", fit_seq_ms.size());
  r.Add("fit.nodes", Mean(fit_nodes), "count", fit_nodes.size());
  r.Add("gen.late_ms", late_p99, "ms", late_samples);
  r.Add("unattributed_us", table.unattributed_us, "us", n);
  r.Add("trace.client_us", table.client_us, "us", n);
  r.Add("trace.overhead_ms", Quantile(traced, 0.5) - Quantile(plain, 0.5),
        "ms", traced.size());
  const bool correct = failed == 0 && counters_ok && conserved &&
                       delta.shed == 0;
  return Finish(r, correct, attempted, failed);
}

}  // namespace servebench
