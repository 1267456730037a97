// Batched range-count evaluation over decomposition trees.
//
// The per-query traversal in SpatialHistogram::Query walks the tree once
// per query; with thousands of workload queries the node array is re-read
// from memory each time.  TreeBatchIndex instead sweeps the node array
// *once* in id order (children always have larger ids than their parents,
// see DecompTree::AddChild) carrying, per node, the list of queries that
// partially overlap it.  Each query/node pair is classified exactly as in
// the single-query traversal — disjoint, fully covering, partial-internal,
// partial-leaf (uniformity assumption) — so the answers agree with repeated
// Query up to floating-point summation order.
//
// The tree is flattened once, at fit/load time, into structure-of-arrays
// storage (dimension-major bound planes, a count array, precomputed leaf
// volumes, CSR child lists) so the per-(query, node) classification reads
// contiguous doubles instead of chasing DecompNode and Box allocations.
// The parity tests (tests/release/kernel_parity_test.cc) hold a template
// sweep over the DecompTree itself as the oracle; Query matches it bit for
// bit — the comparisons and arithmetic run in the same order on the same
// values.
#ifndef PRIVTREE_RELEASE_TREE_BATCH_H_
#define PRIVTREE_RELEASE_TREE_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "dp/check.h"
#include "spatial/box.h"

namespace privtree::release {

/// Structure-of-arrays snapshot of a decomposition tree with released
/// counts, built once per synopsis and reused by every QueryBatch call.
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
    lo_.resize(dim_ * n_);
    hi_.resize(dim_ * n_);
    volume_.resize(n_);
    child_offset_.assign(n_ + 1, 0);
    for (std::size_t v = 0; v < n_; ++v) {
      const auto& node = tree.node(static_cast<NodeId>(v));
      const Box& box = box_of(node.domain);
      PRIVTREE_CHECK_EQ(box.dim(), dim_);
      for (std::size_t j = 0; j < dim_; ++j) {
        lo_[j * n_ + v] = box.lo(j);
        hi_[j * n_ + v] = box.hi(j);
      }
      volume_[v] = box.Volume();
      child_offset_[v + 1] =
          child_offset_[v] + static_cast<std::uint32_t>(node.children.size());
      child_ids_.insert(child_ids_.end(), node.children.begin(),
                        node.children.end());
    }
  }

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }

  /// Answers all queries, one estimate per query in input order.
  std::vector<double> Query(std::span<const Box> queries) const;

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> lo_;      // Dimension-major: lo_[j * n_ + v].
  std::vector<double> hi_;
  std::vector<double> count_;   // Released count per node id.
  std::vector<double> volume_;  // Precomputed Box::Volume per node.
  std::vector<std::uint32_t> child_offset_;  // CSR offsets, n_ + 1 entries.
  std::vector<NodeId> child_ids_;            // Children in AddChild order.
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_TREE_BATCH_H_
