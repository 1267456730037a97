// Order statistics, the metric report, and a minimal JSON number reader.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "bench.h"

namespace servebench {

void Fail(const std::string& message) {
  KillServers();
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::fflush(stderr);
  std::exit(2);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q·n samples at or below.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TailLevel(std::size_t n) {
  for (double level : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (static_cast<double>(n) * (1.0 - level) >= 10.0) return level;
  }
  return 0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e = {name, value, unit, samples};
      return;
    }
  }
  entries_.push_back({name, value, unit, samples});
}

void Report::Print() const {
  for (const Entry& e : entries_) {
    std::printf("metric %-34s = %-14.6g %-6s (n=%zu)\n", e.name.c_str(),
                e.value, e.unit.c_str(), e.samples);
  }
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << '{';
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out << ", ";
    first = false;
    out << '"' << e.name << "\": {\"value\": " << e.value << ", \"unit\": \""
        << e.unit << "\", \"n\": " << e.samples << '}';
  }
  out << '}';
  return out.str();
}

double JsonNumber(std::string_view json, std::string_view key,
                  std::string_view from) {
  std::size_t start = 0;
  if (!from.empty()) {
    start = json.find(from);
    if (start == std::string_view::npos) {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  std::string needle = "\"";
  needle.append(key);
  needle.append("\":");
  const std::size_t at = json.find(needle, start);
  if (at == std::string_view::npos) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const std::string tail(json.substr(at + needle.size(), 32));
  return std::strtod(tail.c_str(), nullptr);
}

}  // namespace servebench
