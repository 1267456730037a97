// Process-wide metrics registry: named counters, gauges, and log-bucket
// latency histograms for the serving stack.
//
// Design goals, in order: (1) a hot path cheap enough to leave in every
// increment site — Counter::Inc is one relaxed fetch_add on a cache-line
// private shard (single-digit nanoseconds, see bench_obs_metrics); (2) one
// process snapshot that captures every subsystem — the event loop, the
// admission controller, the synopsis cache, the engines, and client
// telemetry all register here by dotted name ("event.accepted",
// "cache.hits", "engine.queue_wait_us"); (3) a compile-out mirroring the
// fault-injection pattern (core/fault.h): -DPRIVTREE_NO_METRICS turns
// every recording call into an inline no-op constant while keeping the
// types and call sites intact.
//
// Registration (Registry::GetCounter and friends) takes a lock and is the
// slow path: components resolve their handles once (constructor or a
// function-local static) and hold references.  Handles stay valid for the
// process lifetime — Reset() zeroes values but never invalidates them.
//
// Histograms record unsigned microsecond latencies into fixed log-spaced
// buckets: 16 exact buckets for 0..15us, then four sub-buckets per
// power-of-two octave up to 2^63 (256 buckets total, ≤25% relative error).
// Quantile(q) is the nearest-rank estimator over the buckets: it returns
// the *lower bound* of the bucket containing the rank-⌈q·n⌉ sample, so a
// sample set drawn exactly on bucket boundaries reproduces the
// sorted-vector nearest-rank oracle bit for bit (tests/obs rely on this).
#ifndef PRIVTREE_OBS_METRICS_H_
#define PRIVTREE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.h"

namespace privtree::obs {

/// Number of cache-line-private shards one counter spreads its increments
/// over; threads pick a shard round-robin at first use.
inline constexpr std::size_t kCounterShards = 16;

/// Total histogram buckets: 16 exact + 4 sub-buckets × 60 octaves.
inline constexpr std::size_t kHistogramBuckets = 256;

/// Index of the bucket holding a microsecond value (see the header comment
/// for the layout).  Exposed so tests can construct boundary-exact samples.
constexpr std::size_t HistogramBucketIndex(std::uint64_t us) {
  if (us < 16) return static_cast<std::size_t>(us);
  const int exponent = 63 - std::countl_zero(us);  // >= 4
  const std::uint64_t sub = (us >> (exponent - 2)) & 3;
  return 16 + static_cast<std::size_t>(exponent - 4) * 4 +
         static_cast<std::size_t>(sub);
}

/// Lower bound (inclusive) of bucket `index`; the value Quantile reports
/// for samples landing in it.
constexpr std::uint64_t HistogramBucketLowerBound(std::size_t index) {
  if (index < 16) return index;
  const std::size_t octave = (index - 16) / 4 + 4;
  const std::uint64_t sub = (index - 16) % 4;
  return (std::uint64_t{1} << octave) + (sub << (octave - 2));
}

#ifndef PRIVTREE_NO_METRICS

/// A named monotone counter.  Inc is wait-free: one relaxed fetch_add on
/// this thread's shard; Value sums the shards (monotone but not a
/// linearizable snapshot — exact once writers quiesce).
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  static std::size_t ShardIndex();

  std::array<Shard, kCounterShards> shards_{};
};

/// A named level value (queue backlogs, resident bytes, peaks).
class Gauge {
 public:
  void Set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }

  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }

  void Sub(std::uint64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if larger (peak tracking).
  void SetMax(std::uint64_t v) {
    std::uint64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < v && !value_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A fixed-bucket log-spaced latency histogram over microseconds.
class Histogram {
 public:
  /// One relaxed increment on the value's bucket plus one on the sum.
  void Observe(std::uint64_t us) {
    buckets_[HistogramBucketIndex(us)].fetch_add(1,
                                                 std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }

  std::uint64_t Count() const;
  std::uint64_t SumMicros() const {
    return sum_us_.load(std::memory_order_relaxed);
  }

  /// Nearest-rank quantile: the lower bound of the bucket holding the
  /// rank-⌈q·n⌉ sample (q clamped to (0, 1]); 0 when empty.
  std::uint64_t Quantile(double q) const;

  /// Bucket counts, index-aligned with HistogramBucketLowerBound.
  std::array<std::uint64_t, kHistogramBuckets> Buckets() const;

  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// The process-wide metric registry.  Lookup is locked (resolve handles
/// once); recording through handles never locks.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Sorted counter names currently registered.
  std::vector<std::string> CounterNames() const;

  /// Zeroes every metric value.  Handles stay valid (benches reset between
  /// phases; tests reset between cases).
  void Reset();

  /// The whole registry as one JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum_us":..,
  ///                          "p50_us":..,"p99_us":..,"p999_us":..}}}
  /// Every value is an unsigned integer, so snapshots diff bit for bit.
  std::string ToJson() const;

 private:
  Registry() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

#else  // PRIVTREE_NO_METRICS

// The compiled-out registry: identical API, every recording call an inline
// no-op, every read zero.  Call sites stay unconditional, exactly like the
// PRIVTREE_FAULT points under PRIVTREE_NO_FAULT_INJECTION.

class Counter {
 public:
  void Inc(std::uint64_t = 1) {}
  std::uint64_t Value() const { return 0; }
  void Reset() {}
};

class Gauge {
 public:
  void Set(std::uint64_t) {}
  void Add(std::uint64_t) {}
  void Sub(std::uint64_t) {}
  void SetMax(std::uint64_t) {}
  std::uint64_t Value() const { return 0; }
  void Reset() {}
};

class Histogram {
 public:
  void Observe(std::uint64_t) {}
  std::uint64_t Count() const { return 0; }
  std::uint64_t SumMicros() const { return 0; }
  std::uint64_t Quantile(double) const { return 0; }
  std::array<std::uint64_t, kHistogramBuckets> Buckets() const { return {}; }
  void Reset() {}
};

class Registry {
 public:
  static Registry& Global();
  Counter& GetCounter(std::string_view) { return counter_; }
  Gauge& GetGauge(std::string_view) { return gauge_; }
  Histogram& GetHistogram(std::string_view) { return histogram_; }
  std::vector<std::string> CounterNames() const { return {}; }
  void Reset() {}
  std::string ToJson() const {
    return "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
  }

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

#endif  // PRIVTREE_NO_METRICS

}  // namespace privtree::obs

#endif  // PRIVTREE_OBS_METRICS_H_
