// Batched range-count evaluation over decomposition trees.
//
// The per-query traversal in SpatialHistogram::Query walks the tree once
// per query; with thousands of workload queries the node array is re-read
// from memory each time.  TreeBatchIndex instead sweeps the tree *once*,
// visiting the nodes some query partly covers in id order (children always
// have larger ids than their parents, see DecompTree::AddChild).  Each
// visited node carries the ids of the queries that partly cover it; all
// these lists share one flat buffer, and a child's list is written in one
// piece while its parent is swept.  Each query/node pair is classified
// exactly as in the single-query traversal — disjoint, fully covering,
// partial-internal, partial-leaf (uniformity assumption) — so the answers
// agree with repeated Query up to floating-point summation order.
//
// The tree is flattened once, at fit/load time.  Node bounds are stored
// per parent: the children of a node sit next to each other, dimension by
// dimension (all children's lo_0, then their hi_0, then lo_1, ...), so one
// query is classified against every child of a node in a single pass over
// the dimensions, with SSE2/AVX2 compares (core/simd.h), and written into
// its partly covered children's lists without a branch per child.  The
// parity tests (tests/release/kernel_parity_test.cc) hold a template sweep
// over the DecompTree itself as the oracle; Query matches it bit for bit —
// the comparisons are exact, and each query's counts are added in the same
// (node id, child index) order on the same values.
#ifndef PRIVTREE_RELEASE_TREE_BATCH_H_
#define PRIVTREE_RELEASE_TREE_BATCH_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/tree.h"
#include "dp/check.h"
#include "spatial/box.h"

namespace privtree::release {

/// Flat snapshot of a decomposition tree with released counts, built once
/// per synopsis and reused by every QueryBatch call.
class TreeBatchIndex {
 public:
  /// An empty index answers every query with 0.
  TreeBatchIndex() = default;

  /// Flattens `tree` (`box_of` maps a node's Domain to its geometric Box)
  /// and takes ownership of the released counts, indexed by node id.
  template <typename Domain, typename BoxOf>
  TreeBatchIndex(const DecompTree<Domain>& tree, std::vector<double> count,
                 BoxOf&& box_of)
      : n_(tree.size()), count_(std::move(count)) {
    if (n_ == 0) {
      count_.clear();
      return;
    }
    PRIVTREE_CHECK_EQ(count_.size(), n_);
    dim_ = box_of(tree.node(tree.root()).domain).dim();
    PRIVTREE_CHECK_LT(2 * dim_ * n_,
                      std::size_t{std::numeric_limits<std::uint32_t>::max()});
    // Slot 0 holds the root; node v's children fill the slots
    // [child_offset_[v], child_offset_[v + 1]).
    child_offset_.assign(n_ + 1, 1);
    child_ids_.assign(1, tree.root());
    for (std::size_t v = 0; v < n_; ++v) {
      const auto& children = tree.node(static_cast<NodeId>(v)).children;
      child_offset_[v + 1] =
          child_offset_[v] + static_cast<std::uint32_t>(children.size());
      child_ids_.insert(child_ids_.end(), children.begin(), children.end());
    }
    PRIVTREE_CHECK_EQ(child_offset_[n_], n_);  // One slot per node.
    bounds_.resize(2 * dim_ * n_);
    bound_at_.resize(n_);
    bound_stride_.resize(n_);
    volume_.resize(n_);
    const auto place = [&](NodeId u, std::uint32_t first, std::uint32_t slot,
                           std::uint32_t k) {
      const Box& box = box_of(tree.node(u).domain);
      PRIVTREE_CHECK_EQ(box.dim(), dim_);
      const std::size_t at = 2 * dim_ * first + (slot - first);
      for (std::size_t j = 0; j < dim_; ++j) {
        bounds_[at + 2 * j * k] = box.lo(j);
        bounds_[at + (2 * j + 1) * k] = box.hi(j);
      }
      bound_at_[u] = static_cast<std::uint32_t>(at);
      bound_stride_[u] = k;
      volume_[u] = box.Volume();
    };
    place(tree.root(), 0, 0, 1);
    for (std::size_t v = 0; v < n_; ++v) {
      const std::uint32_t first = child_offset_[v];
      const std::uint32_t k = child_offset_[v + 1] - first;
      for (std::uint32_t s = first; s < first + k; ++s) {
        place(child_ids_[s], first, s, k);
      }
    }
  }

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }

  /// Answers all queries, one estimate per query in input order.  Safe to
  /// call from many threads at once: the scratch is per thread.
  std::vector<double> Query(std::span<const Box> queries) const;

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  // Bounds by child slot, one block per parent: the block of a node whose
  // children take slots [f, f + k) starts at 2 * dim_ * f and holds lo_j of
  // child i at [2j * k + i] and hi_j at [(2j + 1) * k + i].  The root's
  // block (k = 1) comes first.
  std::vector<double> bounds_;
  std::vector<std::uint32_t> bound_at_;      // Per node id: its lo_0 slot.
  std::vector<std::uint32_t> bound_stride_;  // Per node id: its block's k.
  std::vector<double> count_;   // Released count per node id.
  std::vector<double> volume_;  // Precomputed Box::Volume per node id.
  std::vector<std::uint32_t> child_offset_;  // CSR offsets, n_ + 1 entries.
  std::vector<NodeId> child_ids_;            // Slot 0: the root; then the
                                             // children in AddChild order.
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_TREE_BATCH_H_
