// The tree-body codec of the served tree synopses (privtree, simpletree,
// kdtree): it writes and reads the flat tree of release/tree_batch.h
// directly, so a load decodes into flat arrays with no allocation per
// node.  Two body formats are read; only v3 is written.
//
//  * The binary node-array body of v2 envelopes (read-only, pinned by the
//    v2 files in tests/golden):
//
//      u64 node_count
//      per node, in id order:
//        i32 parent          (-1 for the root)
//        f64 released count
//        f64 lo_j, f64 hi_j  for j = 0..dim-1
//
//  * The compressed body of v3 envelopes.  Decomposition trees are highly
//    redundant: every child bound either equals the parent's bound or the
//    parent's midpoint (`0.5 * (lo + hi)`, the Box::BisectDim expression),
//    so bounds shrink to a 2-bit code each (0 = inherit, 1 = midpoint,
//    2 = explicit f64 — matched *bitwise*, so decoding is exact by
//    construction) on top of delta-bit-packed parent links (core/codec.h):
//
//      u64  node count n
//      str  packed parent ids            (PackDeltaI32, id order, root = -1)
//      box  root box                     (raw f64 pairs)
//      str  bound codes                  (nodes 1..n-1 × dim × {lo, hi},
//                                         2 bits each, LSB-first)
//      u64  explicit bound count
//      f64… explicit bounds              (in code-stream order)
//      u32  counts mode                  (0 = raw, 1 = quantized)
//      mode 0:  f64 × n  released counts
//      mode 1:  f64 quantum, str packed counts (PackVarintGB of
//               zigzag(count / quantum)); written only when every count
//               is *bitwise* reproducible as multiple × quantum (the
//               `count_quantum` knob quantized them at Fit), else mode 0
//
// All parents come before any bound, and a parent's bounds come before its
// children's, so the reader decodes each node's bounds from its parent's
// in one flat array.  Both readers validate everything — node counts
// against the payload, parent order, the code-stream size, finite and
// ordered bounds, the count sections — before they build the tree, and
// return counts bit for bit equal to what was written.
#ifndef PRIVTREE_RELEASE_TREE_CODEC_H_
#define PRIVTREE_RELEASE_TREE_CODEC_H_

#include <cstddef>

#include "core/byteio.h"
#include "dp/status.h"
#include "release/tree_batch.h"

namespace privtree::release {

/// Appends the v3 body of `tree`; counts go in quantized mode when
/// `count_quantum` reproduces every one of them bitwise.
void WriteTreeBody(ByteWriter& out, const TreeBatchIndex& tree,
                   double count_quantum);

/// Reads a `dim`-dimensional v2 body.
Result<TreeBatchIndex> ReadTreeBodyV2(ByteReader& in, std::size_t dim);

/// Reads a `dim`-dimensional v3 body.
Result<TreeBatchIndex> ReadTreeBodyV3(ByteReader& in, std::size_t dim);

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_TREE_CODEC_H_
