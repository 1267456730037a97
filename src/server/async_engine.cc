#include "server/async_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "dp/check.h"
#include "dp/rng.h"
#include "obs/metrics.h"
#include "release/options.h"
#include "release/registry.h"

namespace privtree::server {

namespace {

/// How often the watchdog scans the executing requests' deadlines.
constexpr auto kWatchdogPoll = std::chrono::milliseconds(50);

// Registry handles resolved once per process; recording through them is
// lock-free.  Every engine shares these (the names are per-process, like
// the cache the engines share).
obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("engine.queue_wait_us");
  return h;
}

obs::Histogram& FitHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("engine.fit_us");
  return h;
}

obs::Histogram& KernelHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("engine.kernel_us");
  return h;
}

obs::Counter& WatchdogFiredCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("engine.watchdog_fired");
  return c;
}

std::uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

/// A Promise whose Set is idempotent: the watchdog and the (possibly still
/// running) executor can race to settle one request, and only the first
/// settle lands — Promise::Set itself must be called at most once.
template <typename T>
struct SettleOnce {
  explicit SettleOnce(Promise<T> p) : promise(std::move(p)) {}

  void Set(T value) {
    if (!settled.exchange(true, std::memory_order_acq_rel)) {
      promise.Set(std::move(value));
    }
  }

  Promise<T> promise;
  std::atomic<bool> settled{false};
};

/// The post-fit step of a query batch: the kernel over `queries`, timed as
/// its own span.  The batch runs on one pool task; concurrency comes from
/// many requests in flight, and a fitted Method is safe to query from any
/// number of them at once.
template <typename Query>
auto AnswerBatch(std::vector<Query> queries) {
  return [queries = std::move(queries)](const serve::FitResult& fitted,
                                        const obs::TracePtr& trace) {
    const auto kernel_start = std::chrono::steady_clock::now();
    std::vector<double> answers = fitted.method->QueryBatch(
        std::span<const Query>(queries.data(), queries.size()));
    const std::uint64_t kernel_us = MicrosSince(kernel_start);
    KernelHistogram().Observe(kernel_us);
    if (trace) trace->Record(obs::Span::kKernel, kernel_us);
    return QueryBatchResponse{Status::OK(), std::move(answers),
                              fitted.cache_hit};
  };
}

}  // namespace

AsyncEngine::AsyncEngine(release::Dataset data, serve::ThreadPool& pool,
                         serve::SynopsisCache& cache, EngineOptions options)
    : data_(std::move(data)),
      pool_(pool),
      cache_(cache),
      dataset_fingerprint_(data_.Fingerprint()),
      admission_(options.admission, &cache),
      queue_(options.admission.max_queue_depth),
      watchdog_(&AsyncEngine::RunWatchdog, this) {}

AsyncEngine::AsyncEngine(const PointSet& points, Box domain,
                         serve::ThreadPool& pool, serve::SynopsisCache& cache,
                         EngineOptions options)
    : AsyncEngine(release::Dataset(points, std::move(domain)), pool, cache,
                  options) {}

AsyncEngine::~AsyncEngine() {
  // Queued requests capture `this`; do not let them outlive the engine.
  pool_.WaitIdle();
  {
    MutexLock lk(watch_mu_);
    stop_watchdog_ = true;
  }
  watch_cv_.NotifyAll();
  watchdog_.join();
}

std::uint64_t AsyncEngine::BeginWatch(DeadlineClock::time_point deadline,
                                      std::function<void()> fail) {
  if (deadline == kNoDeadline) return 0;
  MutexLock lk(watch_mu_);
  const std::uint64_t id = ++next_watch_id_;
  watched_.emplace(id, Watched{deadline, std::move(fail)});
  return id;
}

void AsyncEngine::EndWatch(std::uint64_t id) {
  if (id == 0) return;
  MutexLock lk(watch_mu_);
  watched_.erase(id);
}

void AsyncEngine::RunWatchdog() {
  MutexLock lk(watch_mu_);
  while (!stop_watchdog_) {
    watch_cv_.WaitFor(lk, kWatchdogPoll);
    if (stop_watchdog_) return;
    const DeadlineClock::time_point now = DeadlineClock::now();
    std::vector<std::function<void()>> fired;
    for (auto it = watched_.begin(); it != watched_.end();) {
      if (now > it->second.deadline) {
        fired.push_back(std::move(it->second.fail));
        it = watched_.erase(it);
      } else {
        ++it;
      }
    }
    if (fired.empty()) continue;
    watchdog_fired_ += fired.size();
    WatchdogFiredCounter().Inc(fired.size());
    lk.Unlock();  // Settling runs OnReady callbacks; never under watch_mu_.
    for (const auto& fail : fired) fail();
    lk.Lock();
  }
}

serve::FitJob AsyncEngine::JobFor(const FitSpec& spec) {
  // The exact ReleaseSession derivation: the session seeds Rng(seed) and
  // each release consumes one Fork() — so a served answer is the answer an
  // in-process session with the same seed would have produced.
  Rng session_rng(spec.seed);
  return {spec.method, spec.options, spec.epsilon, session_rng.Fork()};
}

serve::SynopsisKey AsyncEngine::KeyFor(const FitSpec& spec) const {
  return {dataset_fingerprint_, spec.method,
          serve::CanonicalOptionsText(spec.method, spec.options),
          spec.epsilon, JobFor(spec).rng.Fingerprint()};
}

Status AsyncEngine::ValidateSpec(const FitSpec& spec) const {
  const auto& registry = release::GlobalMethodRegistry();
  if (!registry.Contains(spec.method)) {
    return Status::InvalidArgument("unknown method \"" + spec.method + "\"");
  }
  if (registry.Kind(spec.method) != data_.kind()) {
    return Status::InvalidArgument(
        "method \"" + spec.method + "\" fits " +
        std::string(release::DatasetKindName(registry.Kind(spec.method))) +
        " datasets; this server serves " +
        std::string(release::DatasetKindName(data_.kind())) + " data");
  }
  const std::size_t required = registry.RequiredDim(spec.method);
  if (data_.is_spatial() && required != 0 && required != data_.dim()) {
    return Status::InvalidArgument(
        "method \"" + spec.method + "\" requires " +
        std::to_string(required) + "-dimensional data (serving dim=" +
        std::to_string(data_.dim()) + ")");
  }
  const std::size_t max_dim = registry.Get(spec.method).max_dim;
  if (data_.is_spatial() && max_dim != 0 && data_.dim() > max_dim) {
    return Status::InvalidArgument(
        "method \"" + spec.method + "\" fits at most " +
        std::to_string(max_dim) + "-dimensional data (serving dim=" +
        std::to_string(data_.dim()) + ")");
  }
  // +inf passes `> 0` and NaN fails every comparison; either would reach
  // the fitters' aborting ε checks.
  if (!std::isfinite(spec.epsilon) || spec.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be finite and positive");
  }
  const auto& allowed = registry.AllowedKeys(spec.method);
  for (const std::string& key : spec.options.Keys()) {
    const auto it = std::find_if(
        allowed.begin(), allowed.end(),
        [&](const release::OptionKey& k) { return k.name == key; });
    if (it == allowed.end()) {
      return Status::InvalidArgument("method \"" + spec.method +
                                     "\" has no option \"" + key + "\"");
    }
    // Type + declared range: a wire-supplied value must fail here, with a
    // Status, never inside the fitter's aborting contract checks.
    if (Status value = release::CheckOptionValue(
            *it, spec.options.GetString(key, ""));
        !value.ok()) {
      return value;
    }
  }
  // The one dataset-relative range: a tree split cannot span more
  // dimensions than the served data has.
  if (data_.is_spatial() && spec.options.Has("dims_per_split") &&
      spec.options.GetInt("dims_per_split", 0) >
          static_cast<std::int64_t>(data_.dim())) {
    return Status::InvalidArgument(
        "dims_per_split exceeds the serving dim (" +
        std::to_string(data_.dim()) + ")");
  }
  return Status::OK();
}

Status AsyncEngine::Enqueue(QueuedRequest& request, bool needs_fit,
                            const obs::TracePtr& trace) {
  const auto start = std::chrono::steady_clock::now();
  const auto stamp = [&] {
    if (trace) trace->Record(obs::Span::kAdmission, MicrosSince(start));
  };
  if (needs_fit) {
    if (Status admitted = admission_.AdmitFitLoad(); !admitted.ok()) {
      stamp();
      return admitted;
    }
  }
  if (!queue_.TryPush(request)) {
    admission_.NoteQueueFull();
    stamp();
    return Status::Unavailable(
               "request queue full (" + std::to_string(queue_.max_depth()) +
               " pending); retry later")
        .WithRetryAfter(admission_.options().retry_after_millis);
  }
  admission_.NoteAdmitted();
  stamp();
  pool_.Submit([this] { RunOne(); });
  return Status::OK();
}

void AsyncEngine::RunOne() {
  QueuedRequest request;
  if (!queue_.TryPop(&request)) return;
  if (DeadlineClock::now() > request.deadline) {
    admission_.NoteExpired();
    request.expire(
        Status::DeadlineExceeded("deadline passed while queued; not run"));
    return;
  }
  request.run();
}

template <typename Response, typename Finish>
Future<Response> AsyncEngine::Submit(const FitSpec& spec, Status screened,
                                     bool always_fits,
                                     DeadlineClock::time_point deadline,
                                     obs::TracePtr trace, Finish finish) {
  Promise<Response> promise;
  Future<Response> future = promise.future();
  if (!screened.ok()) {
    promise.Set({std::move(screened), {}, false});
    return future;
  }
  const serve::SynopsisKey key = KeyFor(spec);
  // Queries against a cached synopsis bypass the fit-load gate (they cost
  // no fit); only a request that must fit first counts as fit load.
  const bool needs_fit = always_fits || cache_.Lookup(key) == nullptr;
  if (needs_fit) admission_.BeginFit(key);
  auto shared = std::make_shared<SettleOnce<Response>>(std::move(promise));
  // Settles with an error and releases the fit-load slot.
  const auto fail = [this, shared, key, needs_fit](Status status) {
    if (needs_fit) admission_.EndFit(key);
    shared->Set({std::move(status), {}, false});
  };
  QueuedRequest request;
  request.deadline = deadline;
  request.expire = fail;
  const auto submitted = std::chrono::steady_clock::now();
  request.run = [this, shared, fail, spec, key, needs_fit, deadline, trace,
                 submitted, finish = std::move(finish)] {
    const std::uint64_t wait_us = MicrosSince(submitted);
    QueueWaitHistogram().Observe(wait_us);
    if (trace) trace->Record(obs::Span::kQueueWait, wait_us);
    // The watchdog settles the promise but leaves the fit-load slot to
    // this still-running executor.
    const std::uint64_t watch = BeginWatch(deadline, [shared] {
      shared->Set({Status::DeadlineExceeded(
                       std::is_same_v<Response, FitResponse>
                           ? "deadline passed while the fit was running"
                           : "deadline passed while the request was running"),
                   {},
                   false});
    });
    if (auto f = PRIVTREE_FAULT("engine.fit"); f && f.MaybeSleep()) {
      EndWatch(watch);
      fail(f.ToStatus("engine.fit"));
      return;
    }
    const auto fit_start = std::chrono::steady_clock::now();
    const serve::FitResult fitted = serve::FitSynopsis(
        data_, dataset_fingerprint_, JobFor(spec), &cache_);
    const std::uint64_t fit_us = MicrosSince(fit_start);
    FitHistogram().Observe(fit_us);
    if (trace) {
      trace->Record(obs::Span::kFit, fit_us);
      trace->cache_hit = fitted.cache_hit;
    }
    EndWatch(watch);
    if (needs_fit) admission_.EndFit(key);
    shared->Set(finish(fitted, trace));
  };
  if (Status queued = Enqueue(request, needs_fit, trace); !queued.ok()) {
    fail(std::move(queued));
  }
  return future;
}

Future<FitResponse> AsyncEngine::SubmitFit(
    const FitSpec& spec, DeadlineClock::time_point deadline,
    obs::TracePtr trace) {
  return Submit<FitResponse>(
      spec, ValidateSpec(spec), /*always_fits=*/true, deadline,
      std::move(trace),
      [](const serve::FitResult& fitted, const obs::TracePtr&) {
        return FitResponse{Status::OK(), fitted.method->Metadata(),
                           fitted.cache_hit};
      });
}

Future<QueryBatchResponse> AsyncEngine::SubmitQueryBatch(
    const FitSpec& spec, std::vector<Box> queries,
    DeadlineClock::time_point deadline, obs::TracePtr trace) {
  Status screened = ValidateSpec(spec);
  // ValidateSpec already rejects spatial methods on a sequence engine, but
  // box queries carry their own shape; keep the message direct.
  if (screened.ok() && !data_.is_spatial()) {
    screened = Status::InvalidArgument(
        "box query batches need a spatial served dataset; this server "
        "serves sequence data (use SeqQueryBatch)");
  }
  for (std::size_t i = 0; screened.ok() && i < queries.size(); ++i) {
    if (queries[i].dim() != data_.dim()) {
      screened = Status::InvalidArgument(
          "query box dim " + std::to_string(queries[i].dim()) +
          " != serving dim " + std::to_string(data_.dim()));
    }
  }
  return Submit<QueryBatchResponse>(spec, std::move(screened),
                                    /*always_fits=*/false, deadline,
                                    std::move(trace),
                                    AnswerBatch(std::move(queries)));
}

Future<QueryBatchResponse> AsyncEngine::SubmitSeqQueryBatch(
    const FitSpec& spec, std::vector<release::SequenceQuery> queries,
    DeadlineClock::time_point deadline, obs::TracePtr trace) {
  Status screened = ValidateSpec(spec);
  if (screened.ok() && !data_.is_sequence()) {
    screened = Status::InvalidArgument(
        "sequence query batches need a sequence served dataset; this "
        "server serves spatial data");
  }
  for (std::size_t i = 0; screened.ok() && i < queries.size(); ++i) {
    screened = release::ValidateSequenceQuery(queries[i], data_.dim());
  }
  return Submit<QueryBatchResponse>(spec, std::move(screened),
                                    /*always_fits=*/false, deadline,
                                    std::move(trace),
                                    AnswerBatch(std::move(queries)));
}

AsyncEngine::StatsSnapshot AsyncEngine::Stats() const {
  std::size_t watchdog_fired = 0;
  {
    MutexLock lk(watch_mu_);
    watchdog_fired = watchdog_fired_;
  }
  return {watchdog_fired, admission_.stats(), cache_.stats()};
}

}  // namespace privtree::server
