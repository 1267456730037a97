#include "release/tree_codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "dp/check.h"
#include "spatial/serialization.h"

namespace privtree::release {
namespace {

/// Bitwise double equality: the bound codes must survive ±0 and round-trip
/// exactly, so value comparison (`==`) is not enough.
bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// 2-bit bound codes of the v3 body.
constexpr std::uint32_t kBoundInherit = 0;   // Equals the parent's bound.
constexpr std::uint32_t kBoundMidpoint = 1;  // Equals the parent's midpoint.
constexpr std::uint32_t kBoundExplicit = 2;  // Stored as a raw f64.

// Counts-section modes.
constexpr std::uint32_t kCountsRaw = 0;
constexpr std::uint32_t kCountsQuantized = 1;

/// Appends the counts section: quantized (group-varint multiples) when
/// `quantum` reproduces every count bitwise, raw doubles otherwise.
void WriteCountsSection(ByteWriter& out, const std::vector<double>& counts,
                        double quantum) {
  if (quantum > 0.0 && std::isfinite(quantum)) {
    std::vector<std::uint64_t> multiples;
    multiples.reserve(counts.size());
    bool exact = true;
    for (const double c : counts) {
      if (!std::isfinite(c)) {
        exact = false;
        break;
      }
      const double k = std::nearbyint(c / quantum);
      if (!(std::fabs(k) < 9007199254740992.0) /* 2^53 */ ||
          !SameBits(k * quantum, c)) {
        exact = false;
        break;
      }
      multiples.push_back(ZigZag64(static_cast<std::int64_t>(k)));
    }
    if (exact) {
      out.U32(kCountsQuantized);
      out.F64(quantum);
      out.Str(PackVarintGB(multiples));
      return;
    }
  }
  out.U32(kCountsRaw);
  out.F64Span(counts);
}

/// Reads either counts-section mode; `n` counts exactly.
Status ReadCountsSection(ByteReader& in, std::uint64_t n,
                         std::vector<double>* counts) {
  std::uint32_t mode = 0;
  if (!in.U32(&mode)) {
    return Status::InvalidArgument("tree body: truncated counts mode");
  }
  if (mode == kCountsRaw) {
    if (n > in.remaining() / 8 || !in.F64Vec(n, counts)) {
      return Status::InvalidArgument("tree body: truncated counts");
    }
    return Status::OK();
  }
  if (mode != kCountsQuantized) {
    return Status::InvalidArgument("tree body: unknown counts mode");
  }
  double quantum = 0.0;
  std::string packed;
  if (!in.F64(&quantum) || !in.Str(&packed)) {
    return Status::InvalidArgument("tree body: truncated quantized counts");
  }
  if (!(quantum > 0.0) || !std::isfinite(quantum)) {
    return Status::InvalidArgument("tree body: bad count quantum");
  }
  std::vector<std::uint64_t> multiples;
  if (!UnpackVarintGB(packed, n, &multiples)) {
    return Status::InvalidArgument("tree body: bad quantized counts");
  }
  counts->reserve(n);
  for (const std::uint64_t zz : multiples) {
    // double(k) is exact (the encoder bounded |k| < 2^53), and k * quantum
    // is the very multiply the encoder verified bitwise.
    counts->push_back(static_cast<double>(UnZigZag64(zz)) * quantum);
  }
  return Status::OK();
}

}  // namespace

void WriteTreeBody(ByteWriter& out, const TreeBatchIndex& tree,
                   double count_quantum) {
  PRIVTREE_CHECK(!tree.empty());
  const std::size_t n = tree.size();
  const std::size_t dim = tree.dim();
  const std::vector<NodeId> parents = tree.Parents();
  out.U64(n);
  out.Str(PackDeltaI32(parents));
  for (std::size_t j = 0; j < dim; ++j) {
    out.F64(tree.lo(0, j));
    out.F64(tree.hi(0, j));
  }

  std::string codes;
  BitWriter bits(&codes);
  std::vector<double> explicit_bounds;
  const auto encode_bound = [&](double v, double inherited, double mid) {
    if (SameBits(v, inherited)) {
      bits.Put(kBoundInherit, 2);
    } else if (SameBits(v, mid)) {
      bits.Put(kBoundMidpoint, 2);
    } else {
      bits.Put(kBoundExplicit, 2);
      explicit_bounds.push_back(v);
    }
  };
  for (std::size_t i = 1; i < n; ++i) {
    const auto u = static_cast<NodeId>(i);
    const NodeId p = parents[i];
    for (std::size_t j = 0; j < dim; ++j) {
      // The midpoint expression matches Box::BisectDim bit for bit, so
      // bisection trees (all of PrivTree/SimpleTree, the kd-tree's
      // non-split dims) need no explicit bounds at all.
      const double mid = 0.5 * (tree.lo(p, j) + tree.hi(p, j));
      encode_bound(tree.lo(u, j), tree.lo(p, j), mid);
      encode_bound(tree.hi(u, j), tree.hi(p, j), mid);
    }
  }
  bits.Finish();
  out.Str(codes);
  out.U64(explicit_bounds.size());
  out.F64Span(explicit_bounds);

  WriteCountsSection(out, tree.counts(), count_quantum);
}

Result<TreeBatchIndex> ReadTreeBodyV2(ByteReader& in, std::size_t dim) {
  std::uint64_t nodes = 0;
  if (!in.U64(&nodes) || nodes == 0) {
    return Status::InvalidArgument("tree body: bad node count");
  }
  // Each node record is 4 + 8 + 16·dim bytes; reject counts the remaining
  // payload cannot possibly hold before allocating anything.
  const std::uint64_t record_bytes =
      4 + 8 + 16 * static_cast<std::uint64_t>(dim);
  if (nodes > in.remaining() / record_bytes) {
    return Status::InvalidArgument("tree body: node count exceeds payload");
  }
  TreeParts parts;
  parts.dim = dim;
  parts.parents.resize(nodes);
  parts.bounds.resize(2 * dim * nodes);
  parts.counts.resize(nodes);
  std::string bound_error;
  for (std::uint64_t i = 0; i < nodes; ++i) {
    std::int32_t& parent = parts.parents[i];
    double* box = parts.bounds.data() + 2 * dim * i;
    bool read = in.I32(&parent) && in.F64(&parts.counts[i]);
    for (std::size_t j = 0; read && j < dim; ++j) {
      read = ReadBounds(in, &box[2 * j], &box[2 * j + 1], &bound_error);
    }
    if (!read) {
      return Status::InvalidArgument(
          "tree body: truncated node " + std::to_string(i) +
          (bound_error.empty() ? "" : ": " + bound_error));
    }
    if (i == 0 && parent != kInvalidNode) {
      return Status::InvalidArgument("tree body: root must have parent -1");
    }
    if (i > 0 && (parent < 0 || static_cast<std::uint64_t>(parent) >= i)) {
      return Status::InvalidArgument("tree body: bad parent at node " +
                                     std::to_string(i));
    }
  }
  return TreeBatchIndex(std::move(parts));
}

Result<TreeBatchIndex> ReadTreeBodyV3(ByteReader& in, std::size_t dim) {
  std::uint64_t nodes = 0;
  if (!in.U64(&nodes) || nodes == 0) {
    return Status::InvalidArgument("tree body: bad node count");
  }
  // Packed parents cost at least one width byte per 128 nodes; reject node
  // counts the remaining payload cannot possibly describe before any
  // count-sized allocation happens.
  if (nodes / 128 + 1 > in.remaining()) {
    return Status::InvalidArgument("tree body: node count exceeds payload");
  }
  std::string packed_parents;
  if (!in.Str(&packed_parents)) {
    return Status::InvalidArgument("tree body: truncated parent links");
  }
  TreeParts parts;
  parts.dim = dim;
  if (!UnpackDeltaI32(packed_parents, nodes, &parts.parents)) {
    return Status::InvalidArgument("tree body: bad parent links");
  }
  const std::vector<NodeId>& parents = parts.parents;
  if (parents[0] != kInvalidNode) {
    return Status::InvalidArgument("tree body: root must have parent -1");
  }
  for (std::uint64_t i = 1; i < nodes; ++i) {
    if (parents[i] < 0 || static_cast<std::uint64_t>(parents[i]) >= i) {
      return Status::InvalidArgument("tree body: bad parent at node " +
                                     std::to_string(i));
    }
  }

  std::vector<double> root(2 * dim);
  std::string bound_error;
  for (std::size_t j = 0; j < dim; ++j) {
    if (!ReadBounds(in, &root[2 * j], &root[2 * j + 1], &bound_error)) {
      return Status::InvalidArgument("tree body: root box: " + bound_error);
    }
  }

  std::string codes;
  if (!in.Str(&codes)) {
    return Status::InvalidArgument("tree body: truncated bound codes");
  }
  const std::uint64_t code_bits = (nodes - 1) * dim * 2 * 2;
  if (codes.size() != (code_bits + 7) / 8) {
    return Status::InvalidArgument("tree body: bound code size mismatch");
  }
  std::uint64_t explicit_count = 0;
  if (!in.U64(&explicit_count) || explicit_count > in.remaining() / 8) {
    return Status::InvalidArgument("tree body: bad explicit bound count");
  }
  std::vector<double> explicit_bounds;
  if (!in.F64Vec(explicit_count, &explicit_bounds)) {
    return Status::InvalidArgument("tree body: truncated explicit bounds");
  }

  // Node i's (lo_j, hi_j) at [2 * dim * i + 2 * j]; a parent's bounds are
  // decoded before its children's.
  std::vector<double>& bounds = parts.bounds;
  bounds.resize(2 * dim * nodes);
  std::copy(root.begin(), root.end(), bounds.begin());
  BitReader bits(codes);
  std::size_t next_explicit = 0;
  for (std::uint64_t i = 1; i < nodes; ++i) {
    const double* parent = bounds.data() + 2 * dim * parents[i];
    double* box = bounds.data() + 2 * dim * i;
    for (std::size_t j = 0; j < dim; ++j) {
      const double mid = 0.5 * (parent[2 * j] + parent[2 * j + 1]);
      for (int side = 0; side < 2; ++side) {
        std::uint32_t code = 0;
        if (!bits.Get(2, &code)) {
          return Status::InvalidArgument("tree body: truncated bound codes");
        }
        double& bound = box[2 * j + side];
        switch (code) {
          case kBoundInherit:
            bound = parent[2 * j + side];
            break;
          case kBoundMidpoint:
            bound = mid;
            break;
          case kBoundExplicit:
            if (next_explicit >= explicit_bounds.size()) {
              return Status::InvalidArgument(
                  "tree body: missing explicit bound");
            }
            bound = explicit_bounds[next_explicit++];
            break;
          default:
            return Status::InvalidArgument("tree body: bad bound code");
        }
      }
      const double lo = box[2 * j];
      const double hi = box[2 * j + 1];
      if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo <= hi)) {
        return Status::InvalidArgument("tree body: bad bounds at node " +
                                       std::to_string(i));
      }
    }
  }
  if (next_explicit != explicit_bounds.size()) {
    return Status::InvalidArgument("tree body: unused explicit bounds");
  }

  if (Status s = ReadCountsSection(in, nodes, &parts.counts); !s.ok()) {
    return s;
  }
  return TreeBatchIndex(std::move(parts));
}

}  // namespace privtree::release
