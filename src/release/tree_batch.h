// The served tree: a released decomposition tree with one noisy count per
// node (PAPER.md §3.4), in the one flat layout that PrivTree, SimpleTree
// and kd-tree synopses keep in memory.  A fit flattens the builder's tree
// and drops it; a load decodes the envelope straight into this layout
// (release/tree_codec.h); every answer reads it.
//
// Layout.  Slot 0 holds the root; node v's children take the slots
// [child_offset_[v], child_offset_[v + 1]) in id order, which is the
// builders' AddChild order (children always have larger ids than their
// parents, see DecompTree::AddChild).  Node bounds are stored per parent:
// the children of a node sit next to each other, dimension by dimension
// (all children's lo_0, then their hi_0, then lo_1, ...).
//
// Build core.  Every layout is made from three inputs in node id order —
// parent ids, per-node bounds and released counts (TreeParts) — whether a
// fit gathered them from a DecompTree or a codec decoded them.
//
// Query(const Box&) is the Section 2.2 walk of SpatialHistogram::Query and
// KdTreeHistogram::Query, in their order: a stack that starts at the root,
// pushes a partly covered node's children in order and pops the last one.
// Each node is classified with the same comparisons (disjoint, fully
// covering, partial-internal, partial-leaf under the uniformity
// assumption) and adds `count * (intersection / volume)` in the same form,
// so single-box answers match the builders' bit for bit.
//
// Query(span<const Box>) sweeps the tree *once* for a whole batch,
// visiting the nodes some query partly covers in id order.  Each visited
// node carries the ids of the queries that partly cover it; all these
// lists share one flat buffer, and a child's list is written in one piece
// while its parent is swept.  One query is classified against every child
// of a node in a single pass over the dimensions, with SSE2/AVX2 compares
// (core/simd.h), and written into its partly covered children's lists
// without a branch per child.  The batch answers agree with repeated
// single-box answers up to floating-point summation order; the parity
// tests (tests/release/kernel_parity_test.cc) hold a template sweep over
// the DecompTree itself as the batch oracle, which the batch matches bit
// for bit — the comparisons are exact, and each query's counts are added
// in the same (node id, child index) order on the same values.
#ifndef PRIVTREE_RELEASE_TREE_BATCH_H_
#define PRIVTREE_RELEASE_TREE_BATCH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/tree.h"
#include "dp/check.h"
#include "spatial/box.h"

namespace privtree::release {

/// The build core's inputs, all in node id order.
struct TreeParts {
  /// kInvalidNode for the root, node 0; every other node's parent has a
  /// smaller id.
  std::vector<NodeId> parents;
  std::size_t dim = 0;
  /// Node v's lo_j at [2 * dim * v + 2 * j] and hi_j right after it.
  std::vector<double> bounds;
  /// Released count per node.
  std::vector<double> counts;

  /// Gathers `tree` (`box_of` maps a node's Domain to its geometric Box)
  /// with its released counts, indexed by node id.
  template <typename Domain, typename BoxOf>
  static TreeParts Of(const DecompTree<Domain>& tree,
                      std::vector<double> counts, BoxOf&& box_of) {
    TreeParts parts;
    parts.counts = std::move(counts);
    if (tree.empty()) return parts;
    parts.dim = box_of(tree.node(tree.root()).domain).dim();
    parts.parents.reserve(tree.size());
    parts.bounds.reserve(2 * parts.dim * tree.size());
    for (const auto& node : tree.nodes()) {
      const Box& box = box_of(node.domain);
      PRIVTREE_CHECK_EQ(box.dim(), parts.dim);
      parts.parents.push_back(node.parent);
      for (std::size_t j = 0; j < parts.dim; ++j) {
        parts.bounds.push_back(box.lo(j));
        parts.bounds.push_back(box.hi(j));
      }
    }
    return parts;
  }
};

/// A released tree in the flat layout, built once per synopsis; answers
/// single boxes and batches and hands the codec what it writes.
class TreeBatchIndex {
 public:
  /// An empty index answers every query with 0.
  TreeBatchIndex() = default;

  /// The build core.  Aborts on inputs that break the TreeParts contract;
  /// decoders validate untrusted bytes before they get here.
  explicit TreeBatchIndex(TreeParts parts);

  /// Flattens `tree` with its released counts, indexed by node id.
  template <typename Domain, typename BoxOf>
  TreeBatchIndex(const DecompTree<Domain>& tree, std::vector<double> count,
                 BoxOf&& box_of)
      : TreeBatchIndex(TreeParts::Of(tree, std::move(count), box_of)) {}

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  /// Maximum node depth; 0 for a root-only or empty tree.
  std::int32_t Height() const { return height_; }

  /// Parent id per node, kInvalidNode for the root.
  std::vector<NodeId> Parents() const;
  /// Node u's bounds in dimension j.
  double lo(NodeId u, std::size_t j) const {
    return bounds_[bound_at_[u] + 2 * j * bound_stride_[u]];
  }
  double hi(NodeId u, std::size_t j) const {
    return bounds_[bound_at_[u] + (2 * j + 1) * bound_stride_[u]];
  }
  /// Released count per node id.
  const std::vector<double>& counts() const { return count_; }

  /// Estimated number of points in `q`, bit for bit what the builder's own
  /// Query answers on the same tree and counts.
  double Query(const Box& q) const;

  /// Answers all queries, one estimate per query in input order.  Safe to
  /// call from many threads at once: the scratch is per thread.
  std::vector<double> Query(std::span<const Box> queries) const;

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::int32_t height_ = 0;
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
                                             // children in id order.
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_TREE_BATCH_H_
