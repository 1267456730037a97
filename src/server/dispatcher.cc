#include "server/dispatcher.h"

#include <chrono>
#include <utility>

#include "obs/export.h"
#include "release/registry.h"
#include "server/request.h"

namespace privtree::server {

namespace {

/// Runs `encode` and charges its duration to the trace's serialize span.
template <typename EncodeFn>
std::string EncodeWithSpan(const obs::TracePtr& trace, EncodeFn&& encode) {
  if (!trace) return encode();
  const auto start = std::chrono::steady_clock::now();
  std::string reply = encode();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  trace->Record(obs::Span::kSerialize, us < 0 ? 0 : us);
  return reply;
}

/// Looks up the tenant a request addressed; null already answered `done`.
AsyncEngine* FindEngine(const DatasetRegistry& registry,
                        std::uint64_t fingerprint,
                        const Dispatcher::Done& done) {
  AsyncEngine* engine = registry.Find(fingerprint);
  if (engine == nullptr) {
    done(EncodeErrorReply(Status::NotFound(
        fingerprint == 0
            ? "no dataset is registered"
            : "no dataset with fingerprint " + std::to_string(fingerprint))));
  }
  return engine;
}

std::string EncodeAnswers(const QueryBatchResponse& response) {
  return EncodeQueryBatchReply({response.answers, response.cache_hit});
}

/// The shared tail of every fit-carrying frame (Fit, QueryBatch,
/// SeqQueryBatch) once decoded: find the tenant, validate the spec, charge
/// the session, submit through `submit(engine)`, and when the engine
/// answers settle the charge and encode the reply with `encode(response)`.
/// Validation must precede KeyFor — canonicalizing the options of an
/// unregistered method is a contract violation.
template <typename Submit, typename Encode>
void ServeRelease(const DatasetRegistry& registry, std::uint64_t fingerprint,
                  const FitSpec& spec,
                  const std::shared_ptr<ClientSession>& session,
                  Dispatcher::Done done, const obs::TracePtr& trace,
                  Submit submit, Encode encode) {
  AsyncEngine* engine = FindEngine(registry, fingerprint, done);
  if (engine == nullptr) return;
  if (Status valid = engine->ValidateSpec(spec); !valid.ok()) {
    done(EncodeErrorReply(valid));
    return;
  }
  const serve::SynopsisKey key = engine->KeyFor(spec);
  if (Status charged = session->Charge(key, spec.epsilon); !charged.ok()) {
    done(EncodeErrorReply(charged));
    return;
  }
  submit(*engine).OnReady(
      [done = std::move(done), session, key, epsilon = spec.epsilon, trace,
       encode = std::move(encode)](const auto& response) {
        session->Settle(key, epsilon, response.status.ok());
        if (!response.status.ok()) {
          done(EncodeErrorReply(response.status));
          return;
        }
        done(EncodeWithSpan(trace, [&] { return encode(response); }));
      });
}

}  // namespace

Dispatcher::Dispatcher(DatasetRegistry& registry, DispatcherOptions options)
    : registry_(registry), options_(options) {}

void Dispatcher::HandleFrame(std::string_view payload,
                             const std::shared_ptr<ClientSession>& session,
                             bool* shutdown, Done done, obs::TracePtr trace) {
  Result<MessageType> type = PeekType(payload);
  if (!type.ok()) {
    done(EncodeErrorReply(type.status()));
    return;
  }

  // Unwrap the optional v5 trace envelope first: the inner frame is
  // dispatched exactly as if it had arrived bare, so wrapping never
  // changes the reply bytes.  DecodeTraced rejects nesting, so one pass
  // suffices.
  if (type.value() == MessageType::kTraced) {
    std::uint64_t trace_id = 0;
    std::string_view inner;
    if (Status s = DecodeTraced(payload, &trace_id, &inner); !s.ok()) {
      done(EncodeErrorReply(s));
      return;
    }
    if (trace) {
      trace->trace_id = trace_id;
      trace->client_supplied_id = true;
    }
    payload = inner;
    type = PeekType(payload);
    if (!type.ok()) {
      done(EncodeErrorReply(type.status()));
      return;
    }
  }

  switch (type.value()) {
    case MessageType::kHello:
      done(HandleHello(payload, *session));
      return;

    case MessageType::kFit: {
      FitRequest request;
      if (Status s = DecodeFit(payload, &request); !s.ok()) {
        done(EncodeErrorReply(s));
        return;
      }
      ServeRelease(
          registry_, request.dataset_fingerprint, request.spec, session,
          std::move(done), trace,
          [&](AsyncEngine& engine) {
            return engine.SubmitFit(
                request.spec, DeadlineFromMillis(request.deadline_millis),
                trace);
          },
          [](const FitResponse& response) {
            return EncodeFitReply({response.metadata, response.cache_hit});
          });
      return;
    }

    case MessageType::kQueryBatch: {
      QueryBatchRequest request;
      if (Status s = DecodeQueryBatch(payload, &request); !s.ok()) {
        done(EncodeErrorReply(s));
        return;
      }
      ServeRelease(
          registry_, request.dataset_fingerprint, request.spec, session,
          std::move(done), trace,
          [&](AsyncEngine& engine) {
            return engine.SubmitQueryBatch(
                request.spec, std::move(request.queries),
                DeadlineFromMillis(request.deadline_millis), trace);
          },
          EncodeAnswers);
      return;
    }

    case MessageType::kSeqQueryBatch: {
      SeqQueryBatchRequest request;
      if (Status s = DecodeSeqQueryBatch(payload, &request); !s.ok()) {
        done(EncodeErrorReply(s));
        return;
      }
      ServeRelease(
          registry_, request.dataset_fingerprint, request.spec, session,
          std::move(done), trace,
          [&](AsyncEngine& engine) {
            return engine.SubmitSeqQueryBatch(
                request.spec, std::move(request.queries),
                DeadlineFromMillis(request.deadline_millis), trace);
          },
          EncodeAnswers);
      return;
    }

    case MessageType::kGetStats:
      done(EncodeGetStatsReply(obs::ProcessStatsJson()));
      return;

    case MessageType::kRegisterDataset:
      done(HandleRegisterDataset(payload));
      return;

    case MessageType::kShutdown:
      *shutdown = true;
      done(EncodeShutdownReply());
      return;

    default:
      done(EncodeErrorReply(Status::InvalidArgument(
          "unexpected message type " +
          std::to_string(static_cast<std::uint32_t>(type.value())) +
          " (reply tags are server-to-client only)")));
      return;
  }
}

std::string Dispatcher::HandleHello(std::string_view payload,
                                    const ClientSession& session) const {
  HelloRequest request;
  if (Status s = DecodeHello(payload, &request); !s.ok()) {
    return EncodeErrorReply(s);
  }
  if (request.version < kMinProtocolVersion ||
      request.version > kProtocolVersion) {
    return EncodeErrorReply(Status::InvalidArgument(
        "protocol version " + std::to_string(request.version) +
        " unsupported (server speaks " + std::to_string(kMinProtocolVersion) +
        ".." + std::to_string(kProtocolVersion) + ")"));
  }
  HelloReply reply;
  // Echo the *requested* version: a v4 client checks for exactly 4, so the
  // reply must carry 4 back for old binaries to round-trip unchanged.
  reply.version = request.version;
  reply.datasets = registry_.List();
  if (!reply.datasets.empty()) {
    const DatasetInfo& fallback = reply.datasets.front();
    reply.kind = fallback.kind;
    reply.dim = fallback.dim;
    reply.point_count = fallback.point_count;
    reply.dataset_fingerprint = fallback.fingerprint;
    // Advertise only what the default tenant can actually fit: a client
    // picking from the list must never draw a kind-mismatch rejection.
    reply.methods = release::GlobalMethodRegistry().Names(fallback.kind);
  }
  reply.budget_total = session.budget_total();
  reply.budget_spent = session.spent();
  return EncodeHelloReply(reply);
}

std::string Dispatcher::HandleRegisterDataset(
    std::string_view payload) const {
  RegisterDatasetRequest request;
  if (Status s = DecodeRegisterDataset(payload, &request); !s.ok()) {
    return EncodeErrorReply(s);
  }
  if (!options_.allow_uploads) {
    return EncodeErrorReply(Status::InvalidArgument(
        "this server does not accept dataset uploads"));
  }
  Result<std::uint64_t> registered = Status::Internal("unreachable");
  std::uint64_t count = 0;
  if (request.kind == release::DatasetKind::kSpatial) {
    PointSet points(request.dim, std::move(request.coords));
    count = points.size();
    registered = registry_.Register(
        std::move(request.name), std::move(points),
        Box(request.domain_lo, request.domain_hi));
  } else {
    SequenceDataset sequences(request.dim);
    for (const std::vector<Symbol>& row : request.sequences) {
      sequences.Add(row);
    }
    count = sequences.size();
    registered = registry_.Register(std::move(request.name),
                                    std::move(sequences));
  }
  if (!registered.ok()) return EncodeErrorReply(registered.status());
  return EncodeRegisterDatasetReply({registered.value(), count});
}

}  // namespace privtree::server
