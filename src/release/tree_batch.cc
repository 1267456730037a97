#include "release/tree_batch.h"

#include <algorithm>

namespace privtree::release {

namespace {

// The three geometric predicates of the sweep, on the SoA bound planes.
// Each mirrors the Box member it replaces operand-for-operand (the query is
// `this`, the node is `other`, except IntersectionVolume where the node box
// is the receiver — exactly as a sweep over the tree's Box objects invokes
// them), so the classification and the partial-leaf arithmetic are
// bit-identical.

inline bool QueryIntersectsNode(const Box& q, const double* lo,
                                const double* hi, std::size_t stride,
                                std::size_t v, std::size_t dim) {
  for (std::size_t j = 0; j < dim; ++j) {
    if (std::min(q.hi(j), hi[j * stride + v]) <=
        std::max(q.lo(j), lo[j * stride + v])) {
      return false;
    }
  }
  return true;
}

inline bool QueryContainsNode(const Box& q, const double* lo,
                              const double* hi, std::size_t stride,
                              std::size_t v, std::size_t dim) {
  for (std::size_t j = 0; j < dim; ++j) {
    if (lo[j * stride + v] < q.lo(j) || hi[j * stride + v] > q.hi(j)) {
      return false;
    }
  }
  return true;
}

inline double NodeIntersectionVolume(const Box& q, const double* lo,
                                     const double* hi, std::size_t stride,
                                     std::size_t v, std::size_t dim) {
  double volume = 1.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double width = std::min(hi[j * stride + v], q.hi(j)) -
                         std::max(lo[j * stride + v], q.lo(j));
    if (width <= 0.0) return 0.0;
    volume *= width;
  }
  return volume;
}

}  // namespace

std::vector<double> TreeBatchIndex::Query(std::span<const Box> queries) const {
  std::vector<double> answers(queries.size(), 0.0);
  if (n_ == 0 || queries.empty()) return answers;
  const double* lo = lo_.data();
  const double* hi = hi_.data();

  std::vector<std::vector<std::uint32_t>> active(n_);
  constexpr std::size_t kRoot = 0;
  for (std::uint32_t q = 0; q < queries.size(); ++q) {
    if (!QueryIntersectsNode(queries[q], lo, hi, n_, kRoot, dim_)) continue;
    if (QueryContainsNode(queries[q], lo, hi, n_, kRoot, dim_)) {
      answers[q] += count_[kRoot];
      continue;
    }
    active[kRoot].push_back(q);
  }

  for (std::size_t v = 0; v < n_; ++v) {
    if (active[v].empty()) continue;
    if (child_offset_[v] == child_offset_[v + 1]) {
      // Partial leaf: uniformity assumption inside the cell.
      const double volume = volume_[v];
      if (volume > 0.0) {
        for (const std::uint32_t q : active[v]) {
          answers[q] +=
              count_[v] *
              (NodeIntersectionVolume(queries[q], lo, hi, n_, v, dim_) /
               volume);
        }
      }
    } else {
      for (std::uint32_t c = child_offset_[v]; c < child_offset_[v + 1]; ++c) {
        const auto child = static_cast<std::size_t>(child_ids_[c]);
        for (const std::uint32_t q : active[v]) {
          if (!QueryIntersectsNode(queries[q], lo, hi, n_, child, dim_)) {
            continue;
          }
          if (QueryContainsNode(queries[q], lo, hi, n_, child, dim_)) {
            answers[q] += count_[child];
          } else {
            active[child].push_back(q);
          }
        }
      }
    }
    active[v] = {};  // Free the list; the sweep never revisits v.
  }
  return answers;
}

}  // namespace privtree::release
