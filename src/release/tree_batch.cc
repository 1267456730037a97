#include "release/tree_batch.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <numeric>

#include "core/simd.h"

namespace privtree::release {

namespace {

// Per-thread scratch of Query, kept between calls so that a batch
// allocates nothing but its answers once the buffers have grown.
struct SweepScratch {
  std::vector<double> query_bounds;   // Per query: lo_0, hi_0, lo_1, ...
  std::vector<std::uint32_t> ids;     // Every partial list, back to back.
  std::vector<std::uint32_t> begin;   // Per node id: its list in `ids`,
  std::vector<std::uint32_t> end;     // valid while its `live` bit is set.
  std::vector<std::uint64_t> live;    // Bit v: node v has a partial list.
  std::vector<std::uint32_t> cursor;  // Per child of the node being swept.
};

// A thread keeps its buffers between calls up to this many bytes, so one
// oversized batch or tree does not pin its scratch for the thread's life.
constexpr std::size_t kRetainedScratchBytes = std::size_t{8} << 20;

template <typename T>
T* AtLeast(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

// Bit i describes child c + i of one classification pass.
struct ChildMasks {
  std::uint64_t disjoint = 0;  // Box::Intersects is false.
  std::uint64_t outside = 0;   // Box::ContainsBox is false.
};

// Classifies children [c, c + m), m <= 64, of a parent block holding k
// children (lo_j of child i at block[2j * k + i], hi_j at
// block[(2j + 1) * k + i]) against one query q = (lo_0, hi_0, lo_1, ...).
// These are Box::Intersects and Box::ContainsBox with the query as the
// receiver, operand for operand: disjoint when std::min(q.hi, hi) <=
// std::max(q.lo, lo) in some dimension, not contained when lo < q.lo or
// hi > q.hi in some dimension.  min_pd(hi, qhi) is (hi < qhi ? hi : qhi),
// which is std::min(qhi, hi), and max_pd(lo, qlo) is std::max(qlo, lo),
// NaN and signed zeros included; the ordered compares are false on NaN,
// like the scalar ones.
inline ChildMasks Classify(const double* q, const double* block,
                           std::size_t k, std::size_t c, std::size_t m,
                           std::size_t dim) {
  ChildMasks out;
  std::size_t i = 0;
#if defined(PRIVTREE_SIMD_AVX2)
  for (; i + 4 <= m; i += 4) {
    __m256d disjoint = _mm256_setzero_pd();
    __m256d outside = _mm256_setzero_pd();
    for (std::size_t j = 0; j < dim; ++j) {
      const __m256d qlo = _mm256_set1_pd(q[2 * j]);
      const __m256d qhi = _mm256_set1_pd(q[2 * j + 1]);
      const __m256d lo = _mm256_loadu_pd(block + 2 * j * k + c + i);
      const __m256d hi = _mm256_loadu_pd(block + (2 * j + 1) * k + c + i);
      disjoint = _mm256_or_pd(
          disjoint, _mm256_cmp_pd(_mm256_min_pd(hi, qhi),
                                  _mm256_max_pd(lo, qlo), _CMP_LE_OQ));
      outside = _mm256_or_pd(
          outside, _mm256_or_pd(_mm256_cmp_pd(lo, qlo, _CMP_LT_OQ),
                                _mm256_cmp_pd(hi, qhi, _CMP_GT_OQ)));
    }
    out.disjoint |= std::uint64_t(_mm256_movemask_pd(disjoint)) << i;
    out.outside |= std::uint64_t(_mm256_movemask_pd(outside)) << i;
  }
#endif
#if defined(PRIVTREE_SIMD_AVX2) || defined(PRIVTREE_SIMD_SSE2)
  for (; i + 2 <= m; i += 2) {
    __m128d disjoint = _mm_setzero_pd();
    __m128d outside = _mm_setzero_pd();
    for (std::size_t j = 0; j < dim; ++j) {
      const __m128d qlo = _mm_set1_pd(q[2 * j]);
      const __m128d qhi = _mm_set1_pd(q[2 * j + 1]);
      const __m128d lo = _mm_loadu_pd(block + 2 * j * k + c + i);
      const __m128d hi = _mm_loadu_pd(block + (2 * j + 1) * k + c + i);
      disjoint = _mm_or_pd(
          disjoint, _mm_cmple_pd(_mm_min_pd(hi, qhi), _mm_max_pd(lo, qlo)));
      outside = _mm_or_pd(outside, _mm_or_pd(_mm_cmplt_pd(lo, qlo),
                                             _mm_cmpgt_pd(hi, qhi)));
    }
    out.disjoint |= std::uint64_t(_mm_movemask_pd(disjoint)) << i;
    out.outside |= std::uint64_t(_mm_movemask_pd(outside)) << i;
  }
#endif
  for (; i < m; ++i) {
    bool disjoint = false;
    bool outside = false;
    for (std::size_t j = 0; j < dim; ++j) {
      const double lo = block[2 * j * k + c + i];
      const double hi = block[(2 * j + 1) * k + c + i];
      disjoint |= std::min(q[2 * j + 1], hi) <= std::max(q[2 * j], lo);
      outside |= (lo < q[2 * j]) | (hi > q[2 * j + 1]);
    }
    out.disjoint |= std::uint64_t{disjoint} << i;
    out.outside |= std::uint64_t{outside} << i;
  }
  return out;
}

// The intersection volume of a node (lo_j at node[2j * stride], hi_j at
// node[(2j + 1) * stride]) with query q, in Box::IntersectionVolume's
// arithmetic with the node as the receiver.
inline double IntersectionVolume(const double* node, std::size_t stride,
                                 const double* q, std::size_t dim) {
  double volume = 1.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double width = std::min(node[(2 * j + 1) * stride], q[2 * j + 1]) -
                         std::max(node[2 * j * stride], q[2 * j]);
    if (width <= 0.0) return 0.0;
    volume *= width;
  }
  return volume;
}

}  // namespace

TreeBatchIndex::TreeBatchIndex(TreeParts parts)
    : n_(parts.parents.size()), dim_(parts.dim),
      count_(std::move(parts.counts)) {
  if (n_ == 0) {
    dim_ = 0;
    count_.clear();
    return;
  }
  PRIVTREE_CHECK_GE(dim_, 1u);
  PRIVTREE_CHECK_EQ(count_.size(), n_);
  PRIVTREE_CHECK_EQ(parts.bounds.size(), 2 * dim_ * n_);
  PRIVTREE_CHECK_LT(2 * dim_ * n_,
                    std::size_t{std::numeric_limits<std::uint32_t>::max()});
  const std::vector<NodeId>& parent = parts.parents;
  PRIVTREE_CHECK_EQ(parent[0], kInvalidNode);
  // Children per node, then their slots by a prefix sum: slot 0 holds the
  // root, so node v's children fill [child_offset_[v], child_offset_[v + 1]).
  child_offset_.assign(n_ + 1, 0);
  std::vector<std::int32_t> depth(n_, 0);
  for (std::size_t v = 1; v < n_; ++v) {
    PRIVTREE_CHECK_GE(parent[v], 0);
    PRIVTREE_CHECK_LT(static_cast<std::size_t>(parent[v]), v);
    ++child_offset_[parent[v] + 1];
    depth[v] = depth[parent[v]] + 1;
    height_ = std::max(height_, depth[v]);
  }
  child_offset_[0] = 1;
  for (std::size_t v = 0; v < n_; ++v) child_offset_[v + 1] += child_offset_[v];
  // Placing the nodes in id order keeps each node's children in id order.
  std::vector<std::uint32_t> next(child_offset_.begin(),
                                  child_offset_.end() - 1);
  child_ids_.assign(n_, 0);
  for (std::size_t v = 1; v < n_; ++v) {
    child_ids_[next[parent[v]]++] = static_cast<NodeId>(v);
  }

  bounds_.resize(2 * dim_ * n_);
  bound_at_.resize(n_);
  bound_stride_.resize(n_);
  volume_.resize(n_);
  const auto place = [&](NodeId u, std::uint32_t first, std::uint32_t slot,
                         std::uint32_t k) {
    const double* box = parts.bounds.data() + 2 * dim_ * u;
    const std::size_t at = 2 * dim_ * first + (slot - first);
    double volume = 1.0;  // Box::Volume's product, in dimension order.
    for (std::size_t j = 0; j < dim_; ++j) {
      bounds_[at + 2 * j * k] = box[2 * j];
      bounds_[at + (2 * j + 1) * k] = box[2 * j + 1];
      volume *= box[2 * j + 1] - box[2 * j];
    }
    bound_at_[u] = static_cast<std::uint32_t>(at);
    bound_stride_[u] = k;
    volume_[u] = volume;
  };
  place(0, 0, 0, 1);
  for (std::size_t v = 0; v < n_; ++v) {
    const std::uint32_t first = child_offset_[v];
    const std::uint32_t k = child_offset_[v + 1] - first;
    for (std::uint32_t s = first; s < first + k; ++s) {
      place(child_ids_[s], first, s, k);
    }
  }
}

std::vector<NodeId> TreeBatchIndex::Parents() const {
  std::vector<NodeId> parents(n_, kInvalidNode);
  for (std::size_t v = 0; v < n_; ++v) {
    for (std::uint32_t s = child_offset_[v]; s < child_offset_[v + 1]; ++s) {
      parents[child_ids_[s]] = static_cast<NodeId>(v);
    }
  }
  return parents;
}

double TreeBatchIndex::Query(const Box& q) const {
  if (n_ == 0) return 0.0;
  PRIVTREE_CHECK_EQ(q.dim(), dim_);
  std::vector<double> bounds(2 * dim_);
  for (std::size_t j = 0; j < dim_; ++j) {
    bounds[2 * j] = q.lo(j);
    bounds[2 * j + 1] = q.hi(j);
  }
  double answer = 0.0;
  std::vector<NodeId> stack = {0};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    const double* node = bounds_.data() + bound_at_[v];
    const std::size_t stride = bound_stride_[v];
    const ChildMasks masks =
        Classify(bounds.data(), node, stride, 0, 1, dim_);
    if (masks.disjoint != 0) continue;     // Case 1: disjoint.
    if (masks.outside == 0) {              // Case 2: fully contained.
      answer += count_[v];
      continue;
    }
    const std::uint32_t first = child_offset_[v];
    const std::uint32_t last = child_offset_[v + 1];
    if (first != last) {                   // Case 3: partial, internal.
      stack.insert(stack.end(), child_ids_.begin() + first,
                   child_ids_.begin() + last);
      continue;
    }
    // Case 4: partial leaf — uniformity assumption.
    const double volume = volume_[v];
    if (volume > 0.0) {
      answer += count_[v] *
                (IntersectionVolume(node, stride, bounds.data(), dim_) /
                 volume);
    }
  }
  return answer;
}

std::vector<double> TreeBatchIndex::Query(std::span<const Box> queries) const {
  std::vector<double> answers(queries.size(), 0.0);
  if (n_ == 0 || queries.empty()) return answers;
  const std::size_t nq = queries.size();
  thread_local SweepScratch s;

  double* qb = AtLeast(s.query_bounds, 2 * dim_ * nq);
  for (std::size_t q = 0; q < nq; ++q) {
    PRIVTREE_CHECK_EQ(queries[q].dim(), dim_);
    for (std::size_t j = 0; j < dim_; ++j) {
      qb[2 * dim_ * q + 2 * j] = queries[q].lo(j);
      qb[2 * dim_ * q + 2 * j + 1] = queries[q].hi(j);
    }
  }
  std::uint32_t* begin = AtLeast(s.begin, n_);
  std::uint32_t* end = AtLeast(s.end, n_);
  s.live.assign((n_ + 63) / 64, 0);
  std::uint64_t* live = s.live.data();
  std::uint32_t* roots = AtLeast(s.ids, nq);
  std::iota(roots, roots + nq, std::uint32_t{0});
  std::size_t tail = nq;  // First free entry of s.ids.

  // Sweeps the queries listed in s.ids[lo, hi) over the children in slots
  // [first, first + k): a contained child adds its count to the query's
  // answer, in child order; a partly covered child gets the query appended
  // to its list, which takes the next `hi - lo` entries of s.ids.
  const auto sweep = [&](std::size_t lo, std::size_t hi, std::uint32_t first,
                         std::uint32_t k) {
    const std::size_t len = hi - lo;
    PRIVTREE_CHECK_LT(tail + k * len,
                      std::size_t{std::numeric_limits<std::uint32_t>::max()});
    if (s.ids.size() < tail + k * len) {
      s.ids.resize(std::max(2 * s.ids.size(), tail + k * len));
    }
    std::uint32_t* ids = s.ids.data();
    std::uint32_t* cursor = AtLeast(s.cursor, k);
    for (std::uint32_t c = 0; c < k; ++c) {
      cursor[c] = static_cast<std::uint32_t>(tail + c * len);
    }
    const double* block = bounds_.data() + 2 * dim_ * first;
    const NodeId* child = child_ids_.data() + first;
    for (std::size_t p = lo; p < hi; ++p) {
      const std::uint32_t q = ids[p];
      const double* bounds = qb + 2 * dim_ * q;
      double answer = answers[q];
      for (std::size_t c = 0; c < k; c += 64) {
        const std::size_t m = std::min<std::size_t>(64, k - c);
        const ChildMasks masks = Classify(bounds, block, k, c, m, dim_);
        const std::uint64_t valid = m == 64 ? ~std::uint64_t{0}
                                            : (std::uint64_t{1} << m) - 1;
        const std::uint64_t contained =
            ~(masks.disjoint | masks.outside) & valid;
        const std::uint64_t partial = ~masks.disjoint & masks.outside;
        for (std::uint64_t b = contained; b != 0; b &= b - 1) {
          answer += count_[child[c + std::countr_zero(b)]];
        }
        // Every child's slot is written; only a partly covered child's
        // cursor moves past it.
        for (std::size_t i = 0; i < m; ++i) {
          ids[cursor[c + i]] = q;
          cursor[c + i] += static_cast<std::uint32_t>((partial >> i) & 1);
        }
      }
      answers[q] = answer;
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      const auto start = static_cast<std::uint32_t>(tail + c * len);
      if (cursor[c] == start) continue;
      const auto u = static_cast<std::size_t>(child[c]);
      begin[u] = start;
      end[u] = cursor[c];
      live[u / 64] |= std::uint64_t{1} << (u % 64);
    }
    tail += k * len;
  };

  // Slot 0 holds the root, so the root is swept as the only child of a
  // parent that every query partly covers.
  sweep(0, nq, 0, 1);
  for (std::size_t w = 0; w < s.live.size(); ++w) {
    // Sweeping node v only sets bits of its children, whose ids are larger,
    // so re-reading the word visits the nodes in id order.
    while (live[w] != 0) {
      const std::uint64_t bits = live[w];
      live[w] = bits & (bits - 1);
      const std::size_t v = 64 * w + std::countr_zero(bits);
      const std::uint32_t first = child_offset_[v];
      const std::uint32_t k = child_offset_[v + 1] - first;
      if (k != 0) {
        sweep(begin[v], end[v], first, k);
        continue;
      }
      // Partial leaf: uniformity assumption inside the cell.
      const double volume = volume_[v];
      if (!(volume > 0.0)) continue;
      const double* node = bounds_.data() + bound_at_[v];
      const std::size_t stride = bound_stride_[v];
      const std::uint32_t* ids = s.ids.data();
      for (std::size_t p = begin[v]; p < end[v]; ++p) {
        const std::uint32_t q = ids[p];
        answers[q] +=
            count_[v] *
            (IntersectionVolume(node, stride, qb + 2 * dim_ * q, dim_) /
             volume);
      }
    }
  }

  const std::size_t kept =
      s.query_bounds.capacity() * sizeof(double) +
      (s.ids.capacity() + s.begin.capacity() + s.end.capacity() +
       s.cursor.capacity()) * sizeof(std::uint32_t) +
      s.live.capacity() * sizeof(std::uint64_t);
  if (kept > kRetainedScratchBytes) s = SweepScratch{};
  return answers;
}

}  // namespace privtree::release
