#include "obs/metrics.h"

#include <cmath>
#include <sstream>

namespace privtree::obs {

#ifndef PRIVTREE_NO_METRICS

std::size_t Counter::ShardIndex() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::Quantile(double q) const {
  const auto counts = Buckets();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  if (!(q > 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) return HistogramBucketLowerBound(i);
  }
  return HistogramBucketLowerBound(kHistogramBuckets - 1);
}

std::array<std::uint64_t, kHistogramBuckets> Histogram::Buckets() const {
  std::array<std::uint64_t, kHistogramBuckets> out{};
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<std::string> Registry::CounterNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, unused] : counters_) names.push_back(name);
  return names;
}

void Registry::Reset() {
  MutexLock lock(mu_);
  for (auto& [unused, counter] : counters_) counter->Reset();
  for (auto& [unused, gauge] : gauges_) gauge->Reset();
  for (auto& [unused, histogram] : histograms_) histogram->Reset();
}

namespace {

// Metric names are dotted identifiers under our control, but escape the
// JSON-significant bytes anyway so a hostile name cannot corrupt a snapshot.
void AppendJsonString(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
              << "0123456789abcdef"[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string Registry::ToJson() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, name);
    out << ':' << counter->Value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, name);
    out << ':' << gauge->Value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(out, name);
    out << ":{\"count\":" << histogram->Count()
        << ",\"sum_us\":" << histogram->SumMicros()
        << ",\"p50_us\":" << histogram->Quantile(0.50)
        << ",\"p99_us\":" << histogram->Quantile(0.99)
        << ",\"p999_us\":" << histogram->Quantile(0.999) << '}';
  }
  out << "}}";
  return out.str();
}

#else  // PRIVTREE_NO_METRICS

Registry& Registry::Global() {
  static Registry* instance = new Registry();
  return *instance;
}

#endif  // PRIVTREE_NO_METRICS

}  // namespace privtree::obs
