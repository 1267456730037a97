// The asynchronous serving engine: a bounded request queue with completion
// futures, layered over the shared ThreadPool and SynopsisCache.
//
// One engine binds one dataset — spatial points with their declared
// domain, or a symbol-sequence dataset — and serves many concurrent
// clients.  Submission is cheap and
// non-blocking: SubmitFit/SubmitQueryBatch/SubmitSeqQueryBatch screen the
// spec and their queries, pass admission control, enqueue the request, and
// return a Future the caller redeems whenever it likes; execution happens
// on the pool, one request per task, with every fit memoized through the
// cache (identical in-flight fits collapse onto the cache's single-flight
// path and are counted as coalesced by the AdmissionController).  All
// three share one run path — queue wait, watchdog, fit, settle — and
// differ only in the step after the fit: metadata for a fit, the batch
// kernel for queries.  Answers are bit-for-bit the
// answers an in-process ReleaseSession with the same seed would produce,
// because the fit path *is* the ParallelRunner fit path
// (serve::FitSynopsis) and queries are pure post-processing.
//
// Overload never queues unboundedly: a full queue or a saturated cache
// writer sheds the request immediately with Status::Unavailable, and a
// request whose deadline passes while it waits is retired with
// Status::DeadlineExceeded without ever executing.
//
// Warm() is the Prefetch-driven warming path: feed it the fit specs of an
// observed workload (e.g. a replayed request log) and it fills the cache
// through the same admission-controlled queue, so a warmup burst cannot
// starve live traffic past the queue bound.
#ifndef PRIVTREE_SERVER_ASYNC_ENGINE_H_
#define PRIVTREE_SERVER_ASYNC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "dp/status.h"
#include "obs/trace.h"
#include "release/dataset.h"
#include "release/method.h"
#include "release/sequence_query.h"
#include "serve/parallel_runner.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/admission.h"
#include "server/future.h"
#include "server/request.h"
#include "server/request_queue.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {

struct EngineOptions {
  AdmissionOptions admission;
  /// Watchdog scan interval.  A request whose deadline passes while it is
  /// *executing* (a stuck or fault-delayed fit) has its future settled with
  /// DeadlineExceeded by a background watchdog thread instead of wedging
  /// the caller's reply slot forever; the execution itself still runs to
  /// completion (its late result is discarded).  0 disables the watchdog.
  std::uint64_t watchdog_poll_millis = 50;
};

/// One engine per served dataset; safe to call from any number of threads.
class AsyncEngine {
 public:
  /// Everything the engine serves about one dataset and its load state, for
  /// the stats surfaces (bench telemetry, the wire protocol's Stats reply).
  struct StatsSnapshot {
    std::size_t queue_depth = 0;
    std::size_t queue_max_depth = 0;
    /// Running requests the watchdog failed with DeadlineExceeded.
    std::size_t watchdog_fired = 0;
    AdmissionController::Stats admission;
    serve::SynopsisCache::Stats cache;
  };

  /// General form: one engine per served dataset of either kind.  The data
  /// `data` views, `pool` and `cache` must outlive the engine.
  AsyncEngine(release::Dataset data, serve::ThreadPool& pool,
              serve::SynopsisCache& cache, EngineOptions options = {});

  /// Spatial convenience: `points` must outlive the engine.  The domain is
  /// declared by the caller, exactly as in ReleaseSession.
  AsyncEngine(const PointSet& points, Box domain, serve::ThreadPool& pool,
              serve::SynopsisCache& cache, EngineOptions options = {});

  /// Blocks until every outstanding request has resolved.
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Fits (or re-serves from cache) the spec'd release and resolves the
  /// future with its accounting.  Shed or invalid requests resolve
  /// immediately with a non-OK status.
  ///
  /// On every Submit*, `trace` (optional) receives the admission,
  /// queue-wait, fit, and kernel span timings; the same durations feed the
  /// registry's "engine.*_us" histograms whether or not a trace rides
  /// along.  Instrumentation never touches the answer path.
  Future<FitResponse> SubmitFit(
      const FitSpec& spec,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});

  /// Answers `queries` against the spec'd release, fitting it first if the
  /// cache does not hold it.  Every box must have the dataset's dim;
  /// requires a spatial-kind served dataset (a clean InvalidArgument
  /// otherwise).
  Future<QueryBatchResponse> SubmitQueryBatch(
      const FitSpec& spec, std::vector<Box> queries,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});

  /// Sequence counterpart: answers SequenceQuery specs against the spec'd
  /// release.  Requires a sequence-kind served dataset; every query is
  /// screened against the served alphabet (ValidateSequenceQuery), so a
  /// hostile spec resolves with a clean InvalidArgument.
  Future<QueryBatchResponse> SubmitSeqQueryBatch(
      const FitSpec& spec, std::vector<release::SequenceQuery> queries,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});

  /// Cache warming from an observed workload: enqueues an
  /// admission-controlled background fit per not-yet-cached spec and
  /// returns how many were accepted (invalid, shed, and already-cached
  /// specs are skipped).  Fire-and-forget; redeem progress via Stats().
  std::size_t Warm(std::span<const FitSpec> specs);

  /// Non-OK when the spec cannot be served: unregistered method, a method
  /// kind that does not match the served dataset, wrong dimensionality,
  /// non-finite or non-positive ε, unknown option key or out-of-range
  /// value (the registry's OptionKey ranges cover the sequence keys too, so
  /// a hostile socket client never reaches a fitter's aborting contract
  /// check).
  Status ValidateSpec(const FitSpec& spec) const;

  StatsSnapshot Stats() const;

  const release::Dataset& data() const { return data_; }
  /// Spatial accessors; abort on sequence engines (kept for the many
  /// spatial call sites).
  const PointSet& points() const { return data_.points(); }
  const Box& domain() const { return data_.domain(); }
  std::uint64_t dataset_fingerprint() const { return dataset_fingerprint_; }
  serve::ThreadPool& pool() const { return pool_; }
  serve::SynopsisCache& cache() const { return cache_; }
  AdmissionController& admission() { return admission_; }

  /// The cache key / fit job a spec maps to (exposed for tests and the
  /// coalescing bookkeeping; the rng derivation matches ReleaseSession).
  serve::SynopsisKey KeyFor(const FitSpec& spec) const;
  static serve::FitJob JobFor(const FitSpec& spec);

 private:
  /// Pool task body: pop one request, expire or run it.
  void RunOne();

  /// Registers an *executing* request with the watchdog: if `deadline`
  /// passes before EndWatch, the watchdog runs `fail` (which settles the
  /// request's promise with DeadlineExceeded; the promise wrapper makes a
  /// later Set from the still-running executor a no-op).  Returns 0 (no
  /// watch) when the watchdog is disabled or the deadline is kNoDeadline.
  std::uint64_t BeginWatch(DeadlineClock::time_point deadline,
                           std::function<void()> fail) EXCLUDES(watch_mu_);
  void EndWatch(std::uint64_t id) EXCLUDES(watch_mu_);
  void RunWatchdog(std::uint64_t poll_millis) EXCLUDES(watch_mu_);

  /// The run path every Submit* shares: resolves the future with
  /// `screened` when it is not OK, otherwise admits and enqueues the
  /// request, and on the pool records the queue wait, arms the watchdog,
  /// fits through the cache, and settles once with `finish(fitted, trace)`.
  /// `always_fits` charges the fit-load gate even when the key is cached
  /// (fits do; queries against a cached synopsis do not).
  template <typename Response, typename Finish>
  Future<Response> Submit(const FitSpec& spec, Status screened,
                          bool always_fits,
                          DeadlineClock::time_point deadline,
                          obs::TracePtr trace, Finish finish);

  /// Admission + enqueue for one fit-carrying request; on success schedules
  /// a pool task and returns OK.  On failure the caller resolves the future
  /// with the returned status.  `needs_fit` is false when the key is
  /// already cached (queries skip the fit-load gate then).  `trace`
  /// receives the admission-decision span when non-null.
  Status Enqueue(QueuedRequest& request, bool needs_fit,
                 const obs::TracePtr& trace = {});

  const release::Dataset data_;
  serve::ThreadPool& pool_;
  serve::SynopsisCache& cache_;
  const std::uint64_t dataset_fingerprint_;
  AdmissionController admission_;
  RequestQueue queue_;

  struct Watched {
    DeadlineClock::time_point deadline;
    std::function<void()> fail;
  };
  mutable Mutex watch_mu_;
  CondVar watch_cv_;
  std::map<std::uint64_t, Watched> watched_ GUARDED_BY(watch_mu_);
  std::uint64_t next_watch_id_ GUARDED_BY(watch_mu_) = 0;
  std::size_t watchdog_fired_ GUARDED_BY(watch_mu_) = 0;
  bool stop_watchdog_ GUARDED_BY(watch_mu_) = false;
  std::thread watchdog_;
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_ASYNC_ENGINE_H_
